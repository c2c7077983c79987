"""Grid oracle for the Nash-set verifier.

Works on integerized payoffs (denominators cleared per player, which scales
each player's payoffs by a positive constant and so preserves every
equilibrium decision).  Python integers are arbitrary precision, so the
oracle is exact for payoffs of any magnitude.
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
    first mismatch: code 1 = route 1 vs route 2, code 2 = routes vs boxes.
    """
    a1, b1, c1, d1 = h_row
    a2, b2, c2, d2 = h_col

    adv_row_a, adv_row_b = a1 - c1, b1 - d1
    adv_col_a, adv_col_b = a2 - b2, c2 - d2
    sign_row = [_sgn(j * adv_row_a + (n - j) * adv_row_b) for j in range(n + 1)]
    sign_col = [_sgn(i * adv_col_a + (n - i) * adv_col_b) for i in range(n + 1)]

    # Deviation-gain coefficients: the payoff change at each cell from
    # switching to the deviation action (zero on that action's own cells).
    k_ra_ba, k_ra_bb = a1 - c1, b1 - d1
    k_rb_aa, k_rb_ab = c1 - a1, d1 - b1
    k_ca_ab, k_ca_bb = a2 - b2, c2 - d2
    k_cb_aa, k_cb_ba = b2 - a2, d2 - c2

    box_list = [tuple(box) for box in boxes]

    for i in range(n + 1):
        sc = sign_col[i]
        ni = n - i
        col_ok_j0 = sc <= 0
        col_ok_jn = sc >= 0
        col_ok_mid = sc == 0
        for j in range(n + 1):
            sr = sign_row[j]
            row_ok = sr == 0 or (sr > 0 and i == n) or (sr < 0 and i == 0)
            if j == 0:
                col_ok = col_ok_j0
            elif j == n:
                col_ok = col_ok_jn
            else:
                col_ok = col_ok_mid
            nash_sign = row_ok and col_ok

            s_aa = i * j
            s_ab = i * (n - j)
            s_ba = ni * j
            s_bb = ni * (n - j)
            nash_sum = (
                k_ra_ba * s_ba + k_ra_bb * s_bb <= 0
                and k_rb_aa * s_aa + k_rb_ab * s_ab <= 0
                and k_ca_ab * s_ab + k_ca_bb * s_bb <= 0
                and k_cb_aa * s_aa + k_cb_ba * s_ba <= 0
            )
            if nash_sign != nash_sum:
                return (1, i, j)

            in_box = any(
                imin <= i <= imax and jmin <= j <= jmax
                for imin, imax, jmin, jmax in box_list
            )
            if nash_sign != in_box:
                return (2, i, j)
    return None
