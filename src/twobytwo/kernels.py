"""Grid oracle for the Nash-set verifier.

Works on integerized payoffs (denominators cleared per player, which scales
each player's payoffs by a positive constant and so preserves every
equilibrium decision).  Python integers are arbitrary precision, so the
oracle is exact for payoffs of any magnitude.

The grid is classified one row i at a time: each route fills a list of n + 1
verdicts for the row, and only a row whose three lists differ is scanned
point by point for its first disagreement.
"""

from __future__ import annotations


def _sgn(value: int) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def grid_oracle(n, h_row, h_col, boxes):
    """Classify every grid point (i/n, j/n) three ways and compare.

    Route 1 decides Nash membership from the sign of each player's advantage
    line and the position of the own-probability at the boundary; route 2
    evaluates the four full deviation-gain sums against the product joint;
    route 3 is membership in the precomputed solution boxes (as inclusive
    grid-index ranges imin..imax x jmin..jmax).

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

    js = range(n + 1)
    js_rest = [(j, n - j) for j in js]  # the column weights j and n - j of each point
    box_list = [tuple(box) for box in boxes]

    for i in range(n + 1):
        ni = n - i

        # Route 1: the row player's verdict times the column player's, whose
        # own mix is j: pure B at j == 0, pure A at j == n, strict mix between.
        sc = sign_col[i]
        col_ok = [sc == 0] * (n + 1)
        col_ok[n] = sc >= 0
        col_ok[0] = sc <= 0
        nash_sign = [r and c for r, c in zip(row_ok[i == 0, i == n], col_ok)]

        # Route 2: with s_aa = i*j, s_ab = i*(n-j), s_ba = (n-i)*j and
        # s_bb = (n-i)*(n-j), each sum is k . s with the row factor of every
        # cell weight folded into its coefficient.
        ra_ba, ra_bb = k_ra_ba * ni, k_ra_bb * ni
        rb_aa, rb_ab = k_rb_aa * i, k_rb_ab * i
        ca_ab, ca_bb = k_ca_ab * i, k_ca_bb * ni
        cb_aa, cb_ba = k_cb_aa * i, k_cb_ba * ni
        nash_sum = [
            ra_ba * j + ra_bb * rest <= 0
            and rb_aa * j + rb_ab * rest <= 0
            and ca_ab * rest + ca_bb * rest <= 0
            and cb_aa * j + cb_ba * j <= 0
            for j, rest in js_rest
        ]

        # Route 3: every box whose i-range holds row i marks its j-range.
        in_box = [False] * (n + 1)
        for imin, imax, jmin, jmax in box_list:
            if imin <= i <= imax:
                low, high = max(jmin, 0), min(jmax, n)
                if low <= high:
                    in_box[low:high + 1] = [True] * (high - low + 1)

        if nash_sign == nash_sum == in_box:
            continue
        for j in js:
            if nash_sign[j] != nash_sum[j]:
                return (1, i, j)
            if nash_sign[j] != in_box[j]:
                return (2, i, j)
    return None
