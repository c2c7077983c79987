"""Grid oracle for the Nash-set verifier.

Works on integerized payoffs (denominators cleared per player, which scales
each player's payoffs by a positive constant and so preserves every
equilibrium decision).  Python integers are arbitrary precision, so the
oracle is exact for payoffs of any magnitude.

The grid is classified one row i at a time: each route fills a list of n + 1
verdicts for the row, and only a row whose three lists differ is scanned
point by point for its first disagreement.  Along a row each deviation-gain
sum is an integer line A + B*j in the column index j, so route 2 decides the
whole row from four exact integer spans instead of point by point.  It still
reads only the raw payoffs, never the advantage signs of route 1 or the Nash
set behind the boxes of route 3, so the three routes stay independent.
"""

from __future__ import annotations


def _sgn(value: int) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def _span(a: int, b: int, n: int) -> tuple[int, int]:
    """The j in 0..n with a + b*j <= 0, as the inclusive range lo..hi (empty if lo > hi)."""
    if b == 0:
        return (0, n) if a <= 0 else (0, -1)
    if b > 0:
        return 0, min(n, (-a) // b)  # j <= -a/b, floored
    return max(0, -(a // b)), n  # j >= -a/b, ceiled


def grid_oracle(n, h_row, h_col, boxes):
    """Classify every grid point (i/n, j/n) three ways and compare.

    Route 1 decides Nash membership from the sign of each player's advantage
    line and the position of the own-probability at the boundary; route 2
    evaluates the four full deviation-gain sums against the product joint,
    as exact per-row spans of the column index (see `_span`); route 3 is
    membership in the precomputed solution boxes (as inclusive grid-index
    ranges imin..imax x jmin..jmax).

    Returns None if all three agree everywhere, else (code, i, j) for the
    first mismatch in row-major order: code 1 = route 1 vs route 2, code 2 =
    routes vs boxes (code 1 is checked first at a point).
    """
    a1, b1, c1, d1 = h_row
    a2, b2, c2, d2 = h_col

    adv_row_a, adv_row_b = a1 - c1, b1 - d1
    adv_col_a, adv_col_b = a2 - b2, c2 - d2
    sign_row = [_sgn(j * adv_row_a + (n - j) * adv_row_b) for j in range(n + 1)]
    sign_col = [_sgn(i * adv_col_a + (n - i) * adv_col_b) for i in range(n + 1)]
    # Route 1, row player: may it play its own mix at row i, keyed by
    # (i == 0, i == n)?  Pure A (i == n) needs A weakly best, pure B (i == 0)
    # needs B weakly best, a strict mix needs indifference.
    row_ok = {
        (low, high): [sr == 0 or (sr > 0 and high) or (sr < 0 and low) for sr in sign_row]
        for low in (False, True)
        for high in (False, True)
    }

    # Deviation-gain coefficients: the payoff change at each cell from
    # switching to the deviation action (zero on that action's own cells).
    k_ra_ba, k_ra_bb = a1 - c1, b1 - d1
    k_rb_aa, k_rb_ab = c1 - a1, d1 - b1
    k_ca_ab, k_ca_bb = a2 - b2, c2 - d2
    k_cb_aa, k_cb_ba = b2 - a2, d2 - c2

    box_list = [tuple(box) for box in boxes]

    for i in range(n + 1):
        ni = n - i

        # Route 1: the row player's verdict times the column player's, whose
        # own mix is j: pure B at j == 0, pure A at j == n, strict mix between.
        # A column player who is not indifferent admits only one of the two.
        sc = sign_col[i]
        ok = row_ok[i == 0, i == n]
        if sc == 0:
            nash_sign = ok
        elif sc > 0:
            nash_sign = [False] * n + [ok[n]]
        else:
            nash_sign = [ok[0]] + [False] * n

        # Route 2: with s_aa = i*j, s_ab = i*(n-j), s_ba = (n-i)*j and
        # s_bb = (n-i)*(n-j), each sum is k . s with the row factor of every
        # cell weight folded into its coefficient, which leaves A + B*j.
        ra_ba, ra_bb = k_ra_ba * ni, k_ra_bb * ni
        rb_aa, rb_ab = k_rb_aa * i, k_rb_ab * i
        ca = k_ca_ab * i + k_ca_bb * ni  # both cells weigh n - j
        cb = k_cb_aa * i + k_cb_ba * ni  # both cells weigh j
        lows, highs = zip(
            _span(ra_bb * n, ra_ba - ra_bb, n),
            _span(rb_ab * n, rb_aa - rb_ab, n),
            _span(ca * n, -ca, n),
            _span(0, cb, n),
        )
        lo, hi = max(lows), min(highs)
        if lo <= hi:
            nash_sum = [False] * lo + [True] * (hi - lo + 1) + [False] * (n - hi)
        else:
            nash_sum = [False] * (n + 1)

        # Route 3: every box whose i-range holds row i marks its j-range.
        in_box = [False] * (n + 1)
        for imin, imax, jmin, jmax in box_list:
            if imin <= i <= imax:
                low, high = max(jmin, 0), min(jmax, n)
                if low <= high:
                    in_box[low:high + 1] = [True] * (high - low + 1)

        if nash_sign == nash_sum == in_box:
            continue
        for j in range(n + 1):
            if nash_sign[j] != nash_sum[j]:
                return (1, i, j)
            if nash_sign[j] != in_box[j]:
                return (2, i, j)
    return None
