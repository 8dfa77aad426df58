"""Certificate parity: every pinned value is the seed's, to the last bit.

The batched kernel and the frontier engine must not move a certificate.
Pinned per certificate: status, boxes_processed, max_depth and the bits of
min_lower_bound.  Covered: every certificate of certify_all(alpha) for
alpha 4..14 and every certificate of acceptance criterion 4, plus the
s_alpha enclosure bits for even alpha 4..40.  ACCEPTANCE_4 lists the
acceptance-4 calls that certify_all does not make; the rest (psi4_le_F4,
eta0, eta1 and eta_ge2 for alpha 6..14, psihat_nonneg for alpha 4..10) are
the very calls certify_all makes, so CERTIFY_ALL pins them.  Every pinned
certificate is verified.  The min_lower_bound pins of psi4_le_F4 and of
eta1 and eta_ge2 (alpha 6..14) hold the bits of lane_fold's pairwise tree,
which moved them in their last bits; their boxes and depths did not move.
The eta1 pins hold the bits of its integrand built from the terms it shares
with psi4_le_F4 and eta_ge2 (the quotient L(x, 1) and the offset sum), which
moved them by less than 1e-12 relative; their boxes and depths did not move.
One bound on the offset terms beyond |n| = 64, shared by psi4_le_F4, eta1
and eta_ge2, and the integral sandwich of the psi4_le_F4 tail moved the
min_lower_bound of psi4_le_F4 at alpha 4 (+4.4%) and of eta1 at alpha 6 and
8 (+1.6e-8 and +7e-14 relative); their boxes and depths did not move.
The eta0 pins (alpha 6..14) hold the bits of a different proof: eta0 now
encloses the psi4_le_F4 integrand sum_n L(x, n) on [0, 1/2] in one box
(1 box, depth 0 at every alpha), where it was a hand-derived constant check
plus the side condition F(1/2) >= 2/alpha (2 boxes at alpha 6..10) and a
closed bound at alpha >= 12 (1 box); so each of their min_lower_bound pins
moved, and the boxes at alpha 6..10 went from 2 to 1.
The interval-Newton spacing solve moved every s_alpha pin: its enclosures
are 4.4e-16 to 6.1e-14 wide at alpha 4..40, and each overlaps the
bisection's enclosure (up to 9.1e-13 wide).  Through the narrower s_alpha,
F(1) and F'(1), every min_lower_bound of a certificate that reads the
context rose, by 8e-14 to 6e-8 relative; no status, box count or depth
moved.
L's kernel -2/3 + 4R(pi n), taken in its closed form -4/(pi n)^2, moved the
min_lower_bound of L at alpha 6..10, of certify_L_large at alpha 12..100 and
of psihat_nonneg at alpha 6..14 up, each new enclosure inside the old one.
The w route's Taylor minorant moved w_inequality and psihat_nonneg at
alpha 4 (and the context-free w_inequality) from 39 and 41 boxes to depth 6
to 3 and 5 boxes at depth 0; their min_lower_bound is now the integrand's
least value, near 2/15, where it was a box's lower bound, near 0.0037.
Every certificate that sums coefficient rows now sums |n| <= 16 where it
summed |n| <= 64, and bounds the rest by tails taken from n = 17: the
coefficient tails and the offset-tail bound, whose factors
((N+1)/(N-9))^2 and (N+1)^2/((N+1)^2-100) are now derived for the head N
it is given.  The larger tails widen each enclosure a little, so the
min_lower_bound pins of T, L, psihat_nonneg, psi4_le_F4, eta0, eta1 and
eta_ge2 moved (down, by 4e-14 to 3% relative, and eta1 at alpha 6 by
16%; eta_ge2 at alpha 14 up by one ulp, from the rounding of the shorter
sums).  The margins these tails take are small next to the margins of
the boxes, so no status, box count or depth moved, here or in
certify_all at any even alpha from 4 to 1000.
The spacing solve's bracket around a float root moved every s_alpha pin
again: at tol 1e-12 each enclosure is now 5.0e-13 wide (tol/2), where the
Newton steps left it 4.4e-16 to 6.1e-14 wide, and each holds its old one.
Through the wider s_alpha, F(1) and F'(1), every min_lower_bound of a
certificate that reads the context fell, by 2.4e-13 to 3.2e-8 relative
(28 pins); no status, box count or depth moved.
When every product and quotient came to step one ulp outward, where an
error-free transformation used to decide whether it needed to, 134
min_lower_bound pins moved, each down, by 1.1e-16 to 5.7e-11 relative; no
status, box count or depth moved, and no s_alpha pin moved.
"""

import pytest

from repulse import certify
from repulse.potential import solve_s_alpha

TOL = 1e-12

# s_alpha enclosure (lo, hi) at tol 1e-12
S_ALPHA = {
    4: ('0x1.6a09e667f376ap+0', '0x1.6a09e667f4036p+0'),
    6: ('0x1.68cc2180b0b3dp+0', '0x1.68cc2180b1409p+0'),
    8: ('0x1.5c91098bb4d05p+0', '0x1.5c91098bb55d1p+0'),
    10: ('0x1.516f5870bceffp+0', '0x1.516f5870bd7cbp+0'),
    12: ('0x1.4864ee90cc9d9p+0', '0x1.4864ee90cd2a5p+0'),
    14: ('0x1.411e719705be3p+0', '0x1.411e7197064afp+0'),
    16: ('0x1.3b32ab87ead69p+0', '0x1.3b32ab87eb635p+0'),
    18: ('0x1.364e085bb2ed8p+0', '0x1.364e085bb37a4p+0'),
    20: ('0x1.32331b757fbdep+0', '0x1.32331b75804aap+0'),
    22: ('0x1.2eb5393235705p+0', '0x1.2eb5393235fd1p+0'),
    24: ('0x1.2bb39bc64da62p+0', '0x1.2bb39bc64e32ep+0'),
    26: ('0x1.2915dc44201b6p+0', '0x1.2915dc4420a82p+0'),
    28: ('0x1.26c9834448483p+0', '0x1.26c9834448d4fp+0'),
    30: ('0x1.24c05df94d9ffp+0', '0x1.24c05df94e2cbp+0'),
    32: ('0x1.22ef57a562119p+0', '0x1.22ef57a5629e5p+0'),
    34: ('0x1.214dabb8b0da6p+0', '0x1.214dabb8b1672p+0'),
    36: ('0x1.1fd453b9b9171p+0', '0x1.1fd453b9b9a3dp+0'),
    38: ('0x1.1e7d9dffe7c8dp+0', '0x1.1e7d9dffe8559p+0'),
    40: ('0x1.1d44e0b47699ap+0', '0x1.1d44e0b477266p+0'),
}

# certify_all(alpha): inequality_id -> (boxes_processed, max_depth, min_lower_bound)
CERTIFY_ALL = {
    4: {
        'psihat_nonneg': (5, 0, '0x1.111111110e690p-3'),
        'w_inequality': (3, 0, '0x1.111111110e690p-3'),
        'psi4_le_F4': (258, 8, '0x1.032eb8adcdd18p-15'),
    },
    6: {
        'psihat_nonneg': (2, 0, '0x1.12d4f702b78d6p-8'),
        'eta0': (1, 0, '0x1.1fe0c22b1d975p-1'),
        'eta1': (85, 8, '0x1.56fbe3d7bff91p-10'),
        'eta_ge2': (73, 4, '0x1.08789271daed5p-18'),
    },
    8: {
        'psihat_nonneg': (2, 0, '0x1.34c9ae54be0fep-3'),
        'eta0': (1, 0, '0x1.34621c169c73ap+0'),
        'eta1': (55, 7, '0x1.978ae719d4d44p-5'),
        'eta_ge2': (65, 3, '0x1.388288d513a09p-16'),
    },
    10: {
        'psihat_nonneg': (2, 0, '0x1.b7ebb2f4e4cccp-3'),
        'eta0': (1, 0, '0x1.752c11448d52bp+0'),
        'eta1': (39, 6, '0x1.a707f8ef73d54p-8'),
        'eta_ge2': (63, 3, '0x1.c6f692152314cp-16'),
    },
    12: {
        'psihat_nonneg': (2, 0, '0x1.7a6848b9981c9p-3'),
        'eta0': (1, 0, '0x1.8fe803d29ee7ap+0'),
        'eta1': (35, 6, '0x1.70d3cc9e1e89bp-5'),
        'eta_ge2': (63, 3, '0x1.11b8868460ba6p-15'),
    },
    14: {
        'psihat_nonneg': (2, 0, '0x1.c600b37f6431ap-3'),
        'eta0': (1, 0, '0x1.9bbe369624d87p+0'),
        'eta1': (31, 6, '0x1.8da76625e6fffp-5'),
        'eta_ge2': (63, 3, '0x1.31b0767fc687ap-15'),
    },
}

# acceptance 4 beyond certify_all: (function, alpha) -> (status, boxes, max_depth, min_lower_bound)
ACCEPTANCE_4 = {
    ('certify_T', 4): ('verified', 1, 0, '0x1.12aa04e671964p-2'),
    ('certify_T', 6): ('verified', 1, 0, '0x1.87c895bd57960p-2'),
    ('certify_T', 8): ('verified', 1, 0, '0x1.af4928c607c1ep-2'),
    ('certify_T', 10): ('verified', 1, 0, '0x1.c2fe2a36c8a15p-2'),
    ('certify_L', 6): ('verified', 1, 0, '0x1.12d4f702b78d6p-8'),
    ('certify_L', 8): ('verified', 1, 0, '0x1.34c9ae54be0fep-3'),
    ('certify_L', 10): ('verified', 1, 0, '0x1.b7ebb2f4e4cccp-3'),
    ('certify_w_inequality', None): ('verified', 3, 0, '0x1.11111111110f0p-3'),
    ('certify_T_large', 12): ('verified', 1, 0, '0x1.ccba9d07d2931p-2'),
    ('certify_L_large', 12): ('verified', 1, 0, '0x1.7a6848b9981c9p-3'),
    ('certify_T_large', 14): ('verified', 1, 0, '0x1.d5511ab950e6cp-2'),
    ('certify_L_large', 14): ('verified', 1, 0, '0x1.c600b37f6431ap-3'),
    ('certify_T_large', 16): ('verified', 1, 0, '0x1.db6cb6fa31521p-2'),
    ('certify_L_large', 16): ('verified', 1, 0, '0x1.fbc962581962dp-3'),
    ('certify_T_large', 18): ('verified', 1, 0, '0x1.dfffc2d576431p-2'),
    ('certify_L_large', 18): ('verified', 1, 0, '0x1.120a48b211b21p-2'),
    ('certify_T_large', 20): ('verified', 1, 0, '0x1.e38e2a25c51a0p-2'),
    ('certify_L_large', 20): ('verified', 1, 0, '0x1.21b4877c76315p-2'),
    ('certify_T_large', 22): ('verified', 1, 0, '0x1.e66662d3530d0p-2'),
    ('certify_L_large', 22): ('verified', 1, 0, '0x1.2e3c75866c791p-2'),
    ('certify_T_large', 24): ('verified', 1, 0, '0x1.e8ba2dacb4237p-2'),
    ('certify_L_large', 24): ('verified', 1, 0, '0x1.387d11d18a50ep-2'),
    ('certify_T_large', 26): ('verified', 1, 0, '0x1.eaaaaa7427afbp-2'),
    ('certify_L_large', 26): ('verified', 1, 0, '0x1.41083b4d66b67p-2'),
    ('certify_T_large', 28): ('verified', 1, 0, '0x1.ec4ec4def06e3p-2'),
    ('certify_L_large', 28): ('verified', 1, 0, '0x1.4842e77823b06p-2'),
    ('certify_T_large', 30): ('verified', 1, 0, '0x1.edb6db6a6d8c7p-2'),
    ('certify_L_large', 30): ('verified', 1, 0, '0x1.4e7531b7fe1bdp-2'),
    ('certify_T_large', 32): ('verified', 1, 0, '0x1.eeeeeeee1fb52p-2'),
    ('certify_L_large', 32): ('verified', 1, 0, '0x1.53d3fa8f60b94p-2'),
    ('certify_T_large', 34): ('verified', 1, 0, '0x1.efffffffccdf9p-2'),
    ('certify_L_large', 34): ('verified', 1, 0, '0x1.5886ea495e8a0p-2'),
    ('certify_T_large', 36): ('verified', 1, 0, '0x1.f0f0f0f0e44f4p-2'),
    ('certify_L_large', 36): ('verified', 1, 0, '0x1.5cac54655f586p-2'),
    ('certify_T_large', 38): ('verified', 1, 0, '0x1.f1c71c71c3fc8p-2'),
    ('certify_L_large', 38): ('verified', 1, 0, '0x1.605bcf28cb921p-2'),
    ('certify_T_large', 40): ('verified', 1, 0, '0x1.f286bca1ae624p-2'),
    ('certify_L_large', 40): ('verified', 1, 0, '0x1.63a7f9a1b86efp-2'),
    ('certify_T_large', 42): ('verified', 1, 0, '0x1.f333333333020p-2'),
    ('certify_L_large', 42): ('verified', 1, 0, '0x1.669fb974f2135p-2'),
    ('certify_T_large', 44): ('verified', 1, 0, '0x1.f3cf3cf3cf30ap-2'),
    ('certify_L_large', 44): ('verified', 1, 0, '0x1.694f1ddeb80e0p-2'),
    ('certify_T_large', 46): ('verified', 1, 0, '0x1.f45d1745d1713p-2'),
    ('certify_L_large', 46): ('verified', 1, 0, '0x1.6bc004ca83331p-2'),
    ('certify_T_large', 48): ('verified', 1, 0, '0x1.f4de9bd37a6e6p-2'),
    ('certify_L_large', 48): ('verified', 1, 0, '0x1.6dfa94d9744e5p-2'),
    ('certify_T_large', 50): ('verified', 1, 0, '0x1.f555555555550p-2'),
    ('certify_L_large', 50): ('verified', 1, 0, '0x1.700598e726a5ap-2'),
    ('certify_T_large', 52): ('verified', 1, 0, '0x1.f5c28f5c28f59p-2'),
    ('certify_L_large', 52): ('verified', 1, 0, '0x1.71e6c59797850p-2'),
    ('certify_T_large', 54): ('verified', 1, 0, '0x1.f627627627624p-2'),
    ('certify_L_large', 54): ('verified', 1, 0, '0x1.73a2eed7ffb57p-2'),
    ('certify_T_large', 56): ('verified', 1, 0, '0x1.f684bda12f681p-2'),
    ('certify_L_large', 56): ('verified', 1, 0, '0x1.753e317bee671p-2'),
    ('certify_T_large', 58): ('verified', 1, 0, '0x1.f6db6db6db6d8p-2'),
    ('certify_L_large', 58): ('verified', 1, 0, '0x1.76bc13ef95309p-2'),
    ('certify_T_large', 60): ('verified', 1, 0, '0x1.f72c234f72c20p-2'),
    ('certify_L_large', 60): ('verified', 1, 0, '0x1.781fa0264af51p-2'),
    ('certify_T_large', 62): ('verified', 1, 0, '0x1.f777777777774p-2'),
    ('certify_L_large', 62): ('verified', 1, 0, '0x1.796b78595b01bp-2'),
    ('certify_T_large', 64): ('verified', 1, 0, '0x1.f7bdef7bdef78p-2'),
    ('certify_L_large', 64): ('verified', 1, 0, '0x1.7aa1e7c2ee266p-2'),
    ('certify_T_large', 66): ('verified', 1, 0, '0x1.f7ffffffffffcp-2'),
    ('certify_L_large', 66): ('verified', 1, 0, '0x1.7bc4f035e818bp-2'),
    ('certify_T_large', 68): ('verified', 1, 0, '0x1.f83e0f83e0f80p-2'),
    ('certify_L_large', 68): ('verified', 1, 0, '0x1.7cd6553d10f4ap-2'),
    ('certify_T_large', 70): ('verified', 1, 0, '0x1.f878787878784p-2'),
    ('certify_L_large', 70): ('verified', 1, 0, '0x1.7dd7a543cdffep-2'),
    ('certify_T_large', 72): ('verified', 1, 0, '0x1.f8af8af8af8acp-2'),
    ('certify_L_large', 72): ('verified', 1, 0, '0x1.7eca412ce6a40p-2'),
    ('certify_T_large', 74): ('verified', 1, 0, '0x1.f8e38e38e38e0p-2'),
    ('certify_L_large', 74): ('verified', 1, 0, '0x1.7faf62a57de9cp-2'),
    ('certify_T_large', 76): ('verified', 1, 0, '0x1.f914c1bacf911p-2'),
    ('certify_L_large', 76): ('verified', 1, 0, '0x1.8088217182a14p-2'),
    ('certify_T_large', 78): ('verified', 1, 0, '0x1.f9435e50d7940p-2'),
    ('certify_L_large', 78): ('verified', 1, 0, '0x1.815577e1f2e36p-2'),
    ('certify_T_large', 80): ('verified', 1, 0, '0x1.f96f96f96f96cp-2'),
    ('certify_L_large', 80): ('verified', 1, 0, '0x1.8218469b63f43p-2'),
    ('certify_T_large', 82): ('verified', 1, 0, '0x1.f999999999996p-2'),
    ('certify_L_large', 82): ('verified', 1, 0, '0x1.82d157cb8f5dbp-2'),
    ('certify_T_large', 84): ('verified', 1, 0, '0x1.f9c18f9c18f99p-2'),
    ('certify_L_large', 84): ('verified', 1, 0, '0x1.838161e6a5edep-2'),
    ('certify_T_large', 86): ('verified', 1, 0, '0x1.f9e79e79e79e4p-2'),
    ('certify_L_large', 86): ('verified', 1, 0, '0x1.84290a0072464p-2'),
    ('certify_T_large', 88): ('verified', 1, 0, '0x1.fa0be82fa0be5p-2'),
    ('certify_L_large', 88): ('verified', 1, 0, '0x1.84c8e5d19a533p-2'),
    ('certify_T_large', 90): ('verified', 1, 0, '0x1.fa2e8ba2e8b9fp-2'),
    ('certify_L_large', 90): ('verified', 1, 0, '0x1.85617d7657d3ep-2'),
    ('certify_T_large', 92): ('verified', 1, 0, '0x1.fa4fa4fa4fa4cp-2'),
    ('certify_L_large', 92): ('verified', 1, 0, '0x1.85f34cf1a0d1bp-2'),
    ('certify_T_large', 94): ('verified', 1, 0, '0x1.fa6f4de9bd377p-2'),
    ('certify_L_large', 94): ('verified', 1, 0, '0x1.867ec57dd0605p-2'),
    ('certify_T_large', 96): ('verified', 1, 0, '0x1.fa8d9df51b3bbp-2'),
    ('certify_L_large', 96): ('verified', 1, 0, '0x1.87044eb2550f0p-2'),
    ('certify_T_large', 98): ('verified', 1, 0, '0x1.faaaaaaaaaaa7p-2'),
    ('certify_L_large', 98): ('verified', 1, 0, '0x1.87844784a98bbp-2'),
    ('certify_T_large', 100): ('verified', 1, 0, '0x1.fac687d6343e8p-2'),
    ('certify_L_large', 100): ('verified', 1, 0, '0x1.87ff0729d6035p-2'),
    ('certify_allthestars_large', 16): ('verified', 1, 0, '0x1.ed51305ee0009p-1'),
    ('certify_allthestars_large', 18): ('verified', 1, 0, '0x1.130c62bad0d61p+0'),
    ('certify_allthestars_large', 20): ('verified', 1, 0, '0x1.28425c3dc3dc0p+0'),
    ('certify_allthestars_large', 22): ('verified', 1, 0, '0x1.38f4744c33b1fp+0'),
    ('certify_allthestars_large', 24): ('verified', 1, 0, '0x1.468629b5fbfb6p+0'),
    ('certify_allthestars_large', 26): ('verified', 1, 0, '0x1.51cc0b1e9f87bp+0'),
    ('certify_allthestars_large', 28): ('verified', 1, 0, '0x1.5b51c945fcafep+0'),
    ('certify_allthestars_large', 30): ('verified', 1, 0, '0x1.6378e1b2fcd27p+0'),
    ('certify_allthestars_large', 32): ('verified', 1, 0, '0x1.6a8817a9d14aep+0'),
    ('certify_allthestars_large', 34): ('verified', 1, 0, '0x1.70b43bea4275ap+0'),
    ('certify_allthestars_large', 36): ('verified', 1, 0, '0x1.762596a5343c4p+0'),
    ('certify_allthestars_large', 38): ('verified', 1, 0, '0x1.7afb6ebc1fa37p+0'),
    ('certify_allthestars_large', 40): ('verified', 1, 0, '0x1.7f4e6d3efc7d3p+0'),
    ('certify_allthestars_large', 42): ('verified', 1, 0, '0x1.8332473a67f86p+0'),
    ('certify_allthestars_large', 44): ('verified', 1, 0, '0x1.86b6ecf93effcp+0'),
    ('certify_allthestars_large', 46): ('verified', 1, 0, '0x1.89e96624de76dp+0'),
    ('certify_allthestars_large', 48): ('verified', 1, 0, '0x1.8cd4743c1c1b1p+0'),
    ('certify_allthestars_large', 50): ('verified', 1, 0, '0x1.8f810c46a7d73p+0'),
    ('certify_allthestars_large', 52): ('verified', 1, 0, '0x1.91f6b339f71abp+0'),
    ('certify_allthestars_large', 54): ('verified', 1, 0, '0x1.943bc4fa7256ap+0'),
    ('certify_allthestars_large', 56): ('verified', 1, 0, '0x1.9655ab88f9ed8p+0'),
    ('certify_allthestars_large', 58): ('verified', 1, 0, '0x1.98490a54ae827p+0'),
    ('certify_allthestars_large', 60): ('verified', 1, 0, '0x1.9a19e08fd58e8p+0'),
    ('certify_allthestars_large', 62): ('verified', 1, 0, '0x1.9bcba4a2320abp+0'),
    ('certify_allthestars_large', 64): ('verified', 1, 0, '0x1.9d615a47dcc0bp+0'),
    ('certify_allthestars_large', 66): ('verified', 1, 0, '0x1.9edda487a32f5p+0'),
    ('certify_allthestars_large', 68): ('verified', 1, 0, '0x1.a042d46347fb1p+0'),
    ('certify_allthestars_large', 70): ('verified', 1, 0, '0x1.a192f4ee9c6ffp+0'),
    ('certify_allthestars_large', 72): ('verified', 1, 0, '0x1.a2cfd552c9f05p+0'),
    ('certify_allthestars_large', 74): ('verified', 1, 0, '0x1.a3fb11256f6dfp+0'),
    ('certify_allthestars_large', 76): ('verified', 1, 0, '0x1.a5161764c1beep+0'),
    ('certify_allthestars_large', 78): ('verified', 1, 0, '0x1.a6223058bce98p+0'),
    ('certify_allthestars_large', 80): ('verified', 1, 0, '0x1.a720828c49cc9p+0'),
    ('certify_allthestars_large', 82): ('verified', 1, 0, '0x1.a812170708c02p+0'),
    ('certify_allthestars_large', 84): ('verified', 1, 0, '0x1.a8f7dce87d484p+0'),
    ('certify_allthestars_large', 86): ('verified', 1, 0, '0x1.a9d2ac7f17a7ap+0'),
    ('certify_allthestars_large', 88): ('verified', 1, 0, '0x1.aaa349f0a934dp+0'),
    ('certify_allthestars_large', 90): ('verified', 1, 0, '0x1.ab6a6785e36bep+0'),
    ('certify_allthestars_large', 92): ('verified', 1, 0, '0x1.ac28a7a75e246p+0'),
    ('certify_allthestars_large', 94): ('verified', 1, 0, '0x1.acde9e981b421p+0'),
    ('certify_allthestars_large', 96): ('verified', 1, 0, '0x1.ad8cd3f77411ap+0'),
    ('certify_allthestars_large', 98): ('verified', 1, 0, '0x1.ae33c412b46f6p+0'),
    ('certify_allthestars_large', 100): ('verified', 1, 0, '0x1.aed3e10d4dc87p+0'),
}


def _pinned(c):
    return c.status, c.boxes_processed, c.max_depth, c.min_lower_bound.hex()


@pytest.mark.parametrize("alpha", sorted(S_ALPHA))
def test_s_alpha_enclosure_bits(alpha):
    s = solve_s_alpha(alpha, TOL).s_alpha
    assert (s.lo.hex(), s.hi.hex()) == S_ALPHA[alpha]


@pytest.mark.parametrize("alpha", sorted(CERTIFY_ALL))
def test_certify_all_parity(alpha, ctx_by_alpha):
    ctx = ctx_by_alpha.get(alpha) or solve_s_alpha(alpha, TOL)
    got = {c.inequality_id: _pinned(c) for c in certify.certify_all(alpha, ctx=ctx)}
    want = {k: ("verified", *v) for k, v in CERTIFY_ALL[alpha].items()}
    assert got == want


def test_acceptance_4_parity(ctx_by_alpha):
    got = {}
    for name, alpha in ACCEPTANCE_4:
        fn = getattr(certify, name)
        if alpha is None:
            c = fn()
        elif name.endswith("_large"):
            c = fn(alpha)
        else:
            c = fn(ctx_by_alpha[alpha])
        got[name, alpha] = _pinned(c)
    assert got == ACCEPTANCE_4

