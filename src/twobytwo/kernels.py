"""Grid oracle for the Nash-set verifier.

Works on integerized payoffs (denominators cleared per player, which scales
each player's payoffs by a positive constant and so preserves every
equilibrium decision).  Python integers are arbitrary precision, so the
oracle is exact for payoffs of any magnitude.

The grid is classified one row i at a time: each route gives its verdict on
the row's n + 1 points as the maximal runs of members, inclusive (lo, hi)
column ranges in increasing order, so two routes agree on a row exactly when
their runs are equal.  Only a row whose runs differ is expanded to lists of
n + 1 verdicts and scanned point by point for its first disagreement.  Along
a row each deviation-gain sum is an integer line A + B*j in the column index
j, so route 2 decides the whole row from four exact integer spans, one run
at most.  Route 1's runs depend on the row only through (i == 0, i == n, the
column player's sign), so they are computed once per call for each case;
route 3's change only at a row where some box's i-range starts or ends, and
are computed again only there.  Route 2 still
reads only the raw payoffs, never the advantage signs of route 1 or the Nash
set behind the boxes of route 3, so the three routes stay independent.
"""

from __future__ import annotations


def _runs(verdicts: list[bool]) -> tuple[tuple[int, int], ...]:
    """The maximal runs of True in `verdicts`, as inclusive (lo, hi) pairs."""
    runs = []
    lo = None
    for j, member in enumerate(verdicts):
        if member and lo is None:
            lo = j
        elif not member and lo is not None:
            runs.append((lo, j - 1))
            lo = None
    if lo is not None:
        runs.append((lo, len(verdicts) - 1))
    return tuple(runs)


def _expand(runs: tuple[tuple[int, int], ...], n: int) -> list[bool]:
    """The n + 1 verdicts of a row given as runs."""
    verdicts = [False] * (n + 1)
    for lo, hi in runs:
        verdicts[lo:hi + 1] = [True] * (hi - lo + 1)
    return verdicts


def grid_oracle(n, h_row, h_col, boxes):
    """Classify every grid point (i/n, j/n) three ways and compare.

    Route 1 decides Nash membership from the sign of each player's advantage
    line and the position of the own-probability at the boundary; route 2
    evaluates the four full deviation-gain sums against the product joint,
    as exact per-row spans of the column index; route 3 is
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
    # Each player's advantage of A over B, times n, at each grid mix of the
    # other player: the row player's at column j, the column player's at row i.
    row_line = [j * adv_row_a + (n - j) * adv_row_b for j in range(n + 1)]
    col_line = [i * adv_col_a + (n - i) * adv_col_b for i in range(n + 1)]
    # Route 1 as runs, keyed by (i == 0, i == n, column sign at row i).  The
    # row player may play its own mix at row i when pure A (i == n) has A
    # weakly best, pure B (i == 0) has B weakly best, or a strict mix has
    # indifference.  The column player's own mix is j: pure B at j == 0, pure
    # A at j == n, strict mix between; one who is not indifferent admits only
    # one of the two ends.
    row_ok = {
        (False, False): [v == 0 for v in row_line],
        (True, False): [v <= 0 for v in row_line],
        (False, True): [v >= 0 for v in row_line],
        (True, True): [True] * (n + 1),  # n == 0: the one point is both pure mixes
    }
    sign_runs = {}
    for (low, high), ok in row_ok.items():
        sign_runs[low, high, 0] = _runs(ok)
        sign_runs[low, high, 1] = ((n, n),) if ok[n] else ()
        sign_runs[low, high, -1] = ((0, 0),) if ok[0] else ()

    # Deviation-gain coefficients: the payoff change at each cell from
    # switching to the deviation action (zero on that action's own cells).
    k_ra_ba, k_ra_bb = a1 - c1, b1 - d1
    k_rb_aa, k_rb_ab = c1 - a1, d1 - b1
    k_ca_ab, k_ca_bb = a2 - b2, c2 - d2
    k_cb_aa, k_cb_ba = b2 - a2, d2 - c2

    # Each box's i-range and its j-range clipped to 0..n; boxes that miss
    # every column are dropped.
    clipped = []
    for imin, imax, jmin, jmax in boxes:
        low, high = max(jmin, 0), min(jmax, n)
        if low <= high:
            clipped.append((imin, imax, low, high))

    # The rows where some box's i-range starts or ends.
    cuts = {0}.union(*[(imin, imax + 1) for imin, imax, _, _ in clipped])

    for i in range(n + 1):
        ni = n - i
        sc = col_line[i]
        nash_sign = sign_runs[i == 0, i == n, (sc > 0) - (sc < 0)]

        # Route 2: with s_aa = i*j, s_ab = i*(n-j), s_ba = (n-i)*j and
        # s_bb = (n-i)*(n-j), each sum is k . s with the row factor of every
        # cell weight folded into its coefficient, which leaves A + B*j.
        # Each sum is at most 0 on a span of j: j <= -A/B floored if B > 0,
        # j >= -A/B ceiled if B < 0, every j or none if B == 0.  The row's
        # verdict is the intersection of the four spans with 0..n.
        ra_ba, ra_bb = k_ra_ba * ni, k_ra_bb * ni
        rb_aa, rb_ab = k_rb_aa * i, k_rb_ab * i
        ca = k_ca_ab * i + k_ca_bb * ni  # both cells weigh n - j
        cb = k_cb_aa * i + k_cb_ba * ni  # both cells weigh j
        lo, hi = 0, n
        for a, b in ((ra_bb * n, ra_ba - ra_bb), (rb_ab * n, rb_aa - rb_ab), (ca * n, -ca), (0, cb)):
            if b > 0:
                end = (-a) // b
                if end < hi:
                    hi = end
            elif b < 0:
                end = -(a // b)
                if end > lo:
                    lo = end
            elif a > 0:
                hi = -1
        nash_sum = ((lo, hi),) if lo <= hi else ()

        # Route 3: the j-ranges of the boxes whose i-range holds row i,
        # sorted and merged where they overlap or touch.
        if i in cuts:
            in_box = []
            for low, high in sorted([(low, high) for imin, imax, low, high in clipped if imin <= i <= imax]):
                if in_box and low <= in_box[-1][1] + 1:
                    if high > in_box[-1][1]:
                        in_box[-1] = (in_box[-1][0], high)
                else:
                    in_box.append((low, high))
            in_box = tuple(in_box)

        if nash_sign == nash_sum == in_box:
            continue
        # Runs are canonical, so the lists differ too and the scan returns.
        signs, sums, boxed = _expand(nash_sign, n), _expand(nash_sum, n), _expand(in_box, n)
        for j in range(n + 1):
            if signs[j] != sums[j]:
                return (1, i, j)
            if signs[j] != boxed[j]:
                return (2, i, j)
    return None
