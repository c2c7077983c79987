"""Grid oracle for the Nash-set verifier.

Works on integerized payoffs (denominators cleared per player, which scales
each player's payoffs by a positive constant and so preserves every
equilibrium decision).  Python integers are arbitrary precision, so the
oracle is exact for payoffs of any magnitude.

Each of `grid_oracle`'s three routes gives its verdict on a row i of the
grid as a list of n + 1 booleans, one per column, and two routes agree on a
row exactly when their lists are equal.  The routes are compared only on the
rows where some route's verdicts can differ from the row before:
- rows 0, 1 and n, where the row player's own mix becomes or stops being a
  pure action;
- for route 3, the rows where some box's i-range starts or ends;
- for route 1, whose verdicts depend on the row only through (i == 0,
  i == n, the column player's sign), the rows around the root of the column
  player's advantage line;
- for route 2, which decides a row from four exact integer spans of the
  column index j (each deviation-gain sum is a line A + B*j along a row),
  the rows around the roots of its two column-player sums, which it reads
  only through their signs.  Its two row-player sums are (n - i) and i
  times lines free of i, and a positive factor moves no floor-division span,
  so they change only at rows 0, 1 and n.
So between two compared rows no route's verdicts change, and the first
mismatch in row-major order lies on a compared row, where it is found by a
scan of the row's columns.  Each route finds its rows from its own
coefficients, and route 2 still reads only the raw payoffs, never the
advantage signs of route 1 or the Nash set behind the boxes of route 3, so
the three routes stay independent.
"""

from __future__ import annotations


def _sign_changes(p, q):
    """The rows where the sign of the line p + q*i can differ from the row
    before: the two rows around its root, floor(-p/q) and the next one, or
    none if the line is constant.  A root that is a row makes both change."""
    if q == 0:
        return ()
    root = (-p) // q
    return (root, root + 1)


def grid_oracle(n, h_row, h_col, boxes):
    """Classify every grid point (i/n, j/n) three ways and compare.

    Route 1 decides Nash membership from the sign of each player's advantage
    line and the position of the own-probability at the boundary; route 2
    evaluates the four full deviation-gain sums against the product joint,
    as exact per-row spans of the column index; route 3 is
    membership in the precomputed solution boxes (as inclusive grid-index
    ranges imin..imax x jmin..jmax).

    The routes are compared only on the rows where one of them can change:
    rows 0, 1 and n, the rows where a box's i-range starts or ends, and the
    rows around the roots of route 1's column line and of route 2's two
    column sums.  Between two such rows no route's verdicts change, so the
    rows compared hold the first mismatch of the whole grid.

    Returns None if all three agree everywhere, else (code, i, j) for the
    first mismatch in row-major order: code 1 = route 1 vs route 2, code 2 =
    routes vs boxes (code 1 is checked first at a point).
    """
    a1, b1, c1, d1 = h_row
    a2, b2, c2, d2 = h_col

    adv_row_a, adv_row_b = a1 - c1, b1 - d1
    adv_col_a, adv_col_b = a2 - b2, c2 - d2

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

    # The rows where some route's verdicts can change: 0, 1 and n; the rows
    # where some box's i-range starts or ends (route 3); and, each from the
    # route's own coefficients, the rows around the roots of the column
    # player's line (route 1) and of the lines ca and cb below (route 2), as
    # lines p + q*i.
    rows = {0, 1, n}.union(
        *[(imin, imax + 1) for imin, imax, _, _ in clipped],
        _sign_changes(n * adv_col_b, adv_col_a - adv_col_b),
        _sign_changes(n * k_ca_bb, k_ca_ab - k_ca_bb),
        _sign_changes(n * k_cb_ba, k_cb_aa - k_cb_ba),
    )

    for i in sorted(rows):
        if not 0 <= i <= n:
            continue
        ni = n - i
        # Route 1 from signs.  The column player's advantage of A over B,
        # times n, at row i is the line i*adv_col_a + (n - i)*adv_col_b; the
        # row player's at column j is j*adv_row_a + (n - j)*adv_row_b.  The
        # row player may play its own mix at row i when pure A (i == n) has A
        # weakly best, pure B (i == 0) has B weakly best, or a strict mix has
        # indifference; on the one-point grid (n == 0) the row is both pure
        # mixes.  The column player's own mix is j: pure B at j == 0, pure A
        # at j == n, strict mix between; one who is not indifferent admits
        # only one of the two ends, so only that column is classified.
        signs = [False] * (n + 1)
        sc = i * adv_col_a + ni * adv_col_b
        for j in range(n + 1) if sc == 0 else (n,) if sc > 0 else (0,):
            v = j * adv_row_a + (n - j) * adv_row_b
            signs[j] = (i == 0 and v <= 0) or (i == n and v >= 0) or (0 < i < n and v == 0)

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
        sums = [False] * (n + 1)
        if lo <= hi:  # else hi + 1 could be a negative stop, counted from the end
            sums[lo:hi + 1] = [True] * (hi - lo + 1)

        # Route 3: the j-ranges of the boxes whose i-range holds row i.
        boxed = [False] * (n + 1)
        for imin, imax, low, high in clipped:
            if imin <= i <= imax:
                boxed[low:high + 1] = [True] * (high - low + 1)

        if signs == sums == boxed:
            continue
        for j in range(n + 1):
            if signs[j] != sums[j]:
                return (1, i, j)
            if signs[j] != boxed[j]:
                return (2, i, j)
    return None
