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
        'psihat_nonneg': (5, 0, '0x1.111111110e6b0p-3'),
        'w_inequality': (3, 0, '0x1.111111110e6b0p-3'),
        'psi4_le_F4': (258, 8, '0x1.032eb8add7b85p-15'),
    },
    6: {
        'psihat_nonneg': (2, 0, '0x1.12d4f702b8083p-8'),
        'eta0': (1, 0, '0x1.1fe0c22b1d99ep-1'),
        'eta1': (85, 8, '0x1.56fbe3d7c3791p-10'),
        'eta_ge2': (73, 4, '0x1.087892721c305p-18'),
    },
    8: {
        'psihat_nonneg': (2, 0, '0x1.34c9ae54be13bp-3'),
        'eta0': (1, 0, '0x1.34621c169c745p+0'),
        'eta1': (55, 7, '0x1.978ae719d4fa4p-5'),
        'eta_ge2': (65, 3, '0x1.388288d526627p-16'),
    },
    10: {
        'psihat_nonneg': (2, 0, '0x1.b7ebb2f4e4d21p-3'),
        'eta0': (1, 0, '0x1.752c11448d53bp+0'),
        'eta1': (39, 6, '0x1.a707f8ef7a954p-8'),
        'eta_ge2': (63, 3, '0x1.c6f692153ff66p-16'),
    },
    12: {
        'psihat_nonneg': (2, 0, '0x1.7a6848b9981cap-3'),
        'eta0': (1, 0, '0x1.8fe803d29ee87p+0'),
        'eta1': (35, 6, '0x1.70d3cc9e1e9fbp-5'),
        'eta_ge2': (63, 3, '0x1.11b886846d629p-15'),
    },
    14: {
        'psihat_nonneg': (2, 0, '0x1.c600b37f6431ap-3'),
        'eta0': (1, 0, '0x1.9bbe369624d96p+0'),
        'eta1': (31, 6, '0x1.8da76625e71ffp-5'),
        'eta_ge2': (63, 3, '0x1.31b0767fd538dp-15'),
    },
}

# acceptance 4 beyond certify_all: (function, alpha) -> (status, boxes, max_depth, min_lower_bound)
ACCEPTANCE_4 = {
    ('certify_T', 4): ('verified', 1, 0, '0x1.12aa04e671968p-2'),
    ('certify_T', 6): ('verified', 1, 0, '0x1.87c895bd57964p-2'),
    ('certify_T', 8): ('verified', 1, 0, '0x1.af4928c607c21p-2'),
    ('certify_T', 10): ('verified', 1, 0, '0x1.c2fe2a36c8a19p-2'),
    ('certify_L', 6): ('verified', 1, 0, '0x1.12d4f702b8083p-8'),
    ('certify_L', 8): ('verified', 1, 0, '0x1.34c9ae54be13bp-3'),
    ('certify_L', 10): ('verified', 1, 0, '0x1.b7ebb2f4e4d21p-3'),
    ('certify_w_inequality', None): ('verified', 3, 0, '0x1.1111111111100p-3'),
    ('certify_T_large', 12): ('verified', 1, 0, '0x1.ccba9d07d2932p-2'),
    ('certify_L_large', 12): ('verified', 1, 0, '0x1.7a6848b9981cap-3'),
    ('certify_T_large', 14): ('verified', 1, 0, '0x1.d5511ab950e6dp-2'),
    ('certify_L_large', 14): ('verified', 1, 0, '0x1.c600b37f6431ap-3'),
    ('certify_T_large', 16): ('verified', 1, 0, '0x1.db6cb6fa31522p-2'),
    ('certify_L_large', 16): ('verified', 1, 0, '0x1.fbc962581962fp-3'),
    ('certify_T_large', 18): ('verified', 1, 0, '0x1.dfffc2d576433p-2'),
    ('certify_L_large', 18): ('verified', 1, 0, '0x1.120a48b211b24p-2'),
    ('certify_T_large', 20): ('verified', 1, 0, '0x1.e38e2a25c51a1p-2'),
    ('certify_L_large', 20): ('verified', 1, 0, '0x1.21b4877c76316p-2'),
    ('certify_T_large', 22): ('verified', 1, 0, '0x1.e66662d3530d1p-2'),
    ('certify_L_large', 22): ('verified', 1, 0, '0x1.2e3c75866c791p-2'),
    ('certify_T_large', 24): ('verified', 1, 0, '0x1.e8ba2dacb4238p-2'),
    ('certify_L_large', 24): ('verified', 1, 0, '0x1.387d11d18a50ep-2'),
    ('certify_T_large', 26): ('verified', 1, 0, '0x1.eaaaaa7427afcp-2'),
    ('certify_L_large', 26): ('verified', 1, 0, '0x1.41083b4d66b67p-2'),
    ('certify_T_large', 28): ('verified', 1, 0, '0x1.ec4ec4def06e4p-2'),
    ('certify_L_large', 28): ('verified', 1, 0, '0x1.4842e77823b08p-2'),
    ('certify_T_large', 30): ('verified', 1, 0, '0x1.edb6db6a6d8c8p-2'),
    ('certify_L_large', 30): ('verified', 1, 0, '0x1.4e7531b7fe1bdp-2'),
    ('certify_T_large', 32): ('verified', 1, 0, '0x1.eeeeeeee1fb53p-2'),
    ('certify_L_large', 32): ('verified', 1, 0, '0x1.53d3fa8f60b94p-2'),
    ('certify_T_large', 34): ('verified', 1, 0, '0x1.efffffffccdfbp-2'),
    ('certify_L_large', 34): ('verified', 1, 0, '0x1.5886ea495e8a2p-2'),
    ('certify_T_large', 36): ('verified', 1, 0, '0x1.f0f0f0f0e44f5p-2'),
    ('certify_L_large', 36): ('verified', 1, 0, '0x1.5cac54655f587p-2'),
    ('certify_T_large', 38): ('verified', 1, 0, '0x1.f1c71c71c3fc9p-2'),
    ('certify_L_large', 38): ('verified', 1, 0, '0x1.605bcf28cb922p-2'),
    ('certify_T_large', 40): ('verified', 1, 0, '0x1.f286bca1ae625p-2'),
    ('certify_L_large', 40): ('verified', 1, 0, '0x1.63a7f9a1b86efp-2'),
    ('certify_T_large', 42): ('verified', 1, 0, '0x1.f333333333021p-2'),
    ('certify_L_large', 42): ('verified', 1, 0, '0x1.669fb974f2135p-2'),
    ('certify_T_large', 44): ('verified', 1, 0, '0x1.f3cf3cf3cf30bp-2'),
    ('certify_L_large', 44): ('verified', 1, 0, '0x1.694f1ddeb80e0p-2'),
    ('certify_T_large', 46): ('verified', 1, 0, '0x1.f45d1745d1714p-2'),
    ('certify_L_large', 46): ('verified', 1, 0, '0x1.6bc004ca83332p-2'),
    ('certify_T_large', 48): ('verified', 1, 0, '0x1.f4de9bd37a6e7p-2'),
    ('certify_L_large', 48): ('verified', 1, 0, '0x1.6dfa94d9744e6p-2'),
    ('certify_T_large', 50): ('verified', 1, 0, '0x1.f555555555551p-2'),
    ('certify_L_large', 50): ('verified', 1, 0, '0x1.700598e726a5bp-2'),
    ('certify_T_large', 52): ('verified', 1, 0, '0x1.f5c28f5c28f5ap-2'),
    ('certify_L_large', 52): ('verified', 1, 0, '0x1.71e6c59797850p-2'),
    ('certify_T_large', 54): ('verified', 1, 0, '0x1.f627627627625p-2'),
    ('certify_L_large', 54): ('verified', 1, 0, '0x1.73a2eed7ffb58p-2'),
    ('certify_T_large', 56): ('verified', 1, 0, '0x1.f684bda12f682p-2'),
    ('certify_L_large', 56): ('verified', 1, 0, '0x1.753e317bee672p-2'),
    ('certify_T_large', 58): ('verified', 1, 0, '0x1.f6db6db6db6d9p-2'),
    ('certify_L_large', 58): ('verified', 1, 0, '0x1.76bc13ef9530ap-2'),
    ('certify_T_large', 60): ('verified', 1, 0, '0x1.f72c234f72c21p-2'),
    ('certify_L_large', 60): ('verified', 1, 0, '0x1.781fa0264af52p-2'),
    ('certify_T_large', 62): ('verified', 1, 0, '0x1.f777777777775p-2'),
    ('certify_L_large', 62): ('verified', 1, 0, '0x1.796b78595b01cp-2'),
    ('certify_T_large', 64): ('verified', 1, 0, '0x1.f7bdef7bdef79p-2'),
    ('certify_L_large', 64): ('verified', 1, 0, '0x1.7aa1e7c2ee266p-2'),
    ('certify_T_large', 66): ('verified', 1, 0, '0x1.f7ffffffffffep-2'),
    ('certify_L_large', 66): ('verified', 1, 0, '0x1.7bc4f035e818dp-2'),
    ('certify_T_large', 68): ('verified', 1, 0, '0x1.f83e0f83e0f81p-2'),
    ('certify_L_large', 68): ('verified', 1, 0, '0x1.7cd6553d10f4ap-2'),
    ('certify_T_large', 70): ('verified', 1, 0, '0x1.f878787878785p-2'),
    ('certify_L_large', 70): ('verified', 1, 0, '0x1.7dd7a543cdffep-2'),
    ('certify_T_large', 72): ('verified', 1, 0, '0x1.f8af8af8af8adp-2'),
    ('certify_L_large', 72): ('verified', 1, 0, '0x1.7eca412ce6a41p-2'),
    ('certify_T_large', 74): ('verified', 1, 0, '0x1.f8e38e38e38e1p-2'),
    ('certify_L_large', 74): ('verified', 1, 0, '0x1.7faf62a57de9cp-2'),
    ('certify_T_large', 76): ('verified', 1, 0, '0x1.f914c1bacf912p-2'),
    ('certify_L_large', 76): ('verified', 1, 0, '0x1.8088217182a16p-2'),
    ('certify_T_large', 78): ('verified', 1, 0, '0x1.f9435e50d7941p-2'),
    ('certify_L_large', 78): ('verified', 1, 0, '0x1.815577e1f2e37p-2'),
    ('certify_T_large', 80): ('verified', 1, 0, '0x1.f96f96f96f96dp-2'),
    ('certify_L_large', 80): ('verified', 1, 0, '0x1.8218469b63f43p-2'),
    ('certify_T_large', 82): ('verified', 1, 0, '0x1.f999999999997p-2'),
    ('certify_L_large', 82): ('verified', 1, 0, '0x1.82d157cb8f5dcp-2'),
    ('certify_T_large', 84): ('verified', 1, 0, '0x1.f9c18f9c18f9ap-2'),
    ('certify_L_large', 84): ('verified', 1, 0, '0x1.838161e6a5edep-2'),
    ('certify_T_large', 86): ('verified', 1, 0, '0x1.f9e79e79e79e5p-2'),
    ('certify_L_large', 86): ('verified', 1, 0, '0x1.84290a0072465p-2'),
    ('certify_T_large', 88): ('verified', 1, 0, '0x1.fa0be82fa0be6p-2'),
    ('certify_L_large', 88): ('verified', 1, 0, '0x1.84c8e5d19a534p-2'),
    ('certify_T_large', 90): ('verified', 1, 0, '0x1.fa2e8ba2e8ba0p-2'),
    ('certify_L_large', 90): ('verified', 1, 0, '0x1.85617d7657d3fp-2'),
    ('certify_T_large', 92): ('verified', 1, 0, '0x1.fa4fa4fa4fa4dp-2'),
    ('certify_L_large', 92): ('verified', 1, 0, '0x1.85f34cf1a0d1cp-2'),
    ('certify_T_large', 94): ('verified', 1, 0, '0x1.fa6f4de9bd378p-2'),
    ('certify_L_large', 94): ('verified', 1, 0, '0x1.867ec57dd0606p-2'),
    ('certify_T_large', 96): ('verified', 1, 0, '0x1.fa8d9df51b3bcp-2'),
    ('certify_L_large', 96): ('verified', 1, 0, '0x1.87044eb2550f0p-2'),
    ('certify_T_large', 98): ('verified', 1, 0, '0x1.faaaaaaaaaaa8p-2'),
    ('certify_L_large', 98): ('verified', 1, 0, '0x1.87844784a98bcp-2'),
    ('certify_T_large', 100): ('verified', 1, 0, '0x1.fac687d6343e9p-2'),
    ('certify_L_large', 100): ('verified', 1, 0, '0x1.87ff0729d6036p-2'),
    ('certify_allthestars_large', 16): ('verified', 1, 0, '0x1.ed51305ee000dp-1'),
    ('certify_allthestars_large', 18): ('verified', 1, 0, '0x1.130c62bad0d64p+0'),
    ('certify_allthestars_large', 20): ('verified', 1, 0, '0x1.28425c3dc3dc2p+0'),
    ('certify_allthestars_large', 22): ('verified', 1, 0, '0x1.38f4744c33b21p+0'),
    ('certify_allthestars_large', 24): ('verified', 1, 0, '0x1.468629b5fbfb8p+0'),
    ('certify_allthestars_large', 26): ('verified', 1, 0, '0x1.51cc0b1e9f87dp+0'),
    ('certify_allthestars_large', 28): ('verified', 1, 0, '0x1.5b51c945fcb00p+0'),
    ('certify_allthestars_large', 30): ('verified', 1, 0, '0x1.6378e1b2fcd2ap+0'),
    ('certify_allthestars_large', 32): ('verified', 1, 0, '0x1.6a8817a9d14b0p+0'),
    ('certify_allthestars_large', 34): ('verified', 1, 0, '0x1.70b43bea4275dp+0'),
    ('certify_allthestars_large', 36): ('verified', 1, 0, '0x1.762596a5343c6p+0'),
    ('certify_allthestars_large', 38): ('verified', 1, 0, '0x1.7afb6ebc1fa39p+0'),
    ('certify_allthestars_large', 40): ('verified', 1, 0, '0x1.7f4e6d3efc7d5p+0'),
    ('certify_allthestars_large', 42): ('verified', 1, 0, '0x1.8332473a67f88p+0'),
    ('certify_allthestars_large', 44): ('verified', 1, 0, '0x1.86b6ecf93effep+0'),
    ('certify_allthestars_large', 46): ('verified', 1, 0, '0x1.89e96624de76fp+0'),
    ('certify_allthestars_large', 48): ('verified', 1, 0, '0x1.8cd4743c1c1b3p+0'),
    ('certify_allthestars_large', 50): ('verified', 1, 0, '0x1.8f810c46a7d75p+0'),
    ('certify_allthestars_large', 52): ('verified', 1, 0, '0x1.91f6b339f71acp+0'),
    ('certify_allthestars_large', 54): ('verified', 1, 0, '0x1.943bc4fa7256cp+0'),
    ('certify_allthestars_large', 56): ('verified', 1, 0, '0x1.9655ab88f9ed8p+0'),
    ('certify_allthestars_large', 58): ('verified', 1, 0, '0x1.98490a54ae828p+0'),
    ('certify_allthestars_large', 60): ('verified', 1, 0, '0x1.9a19e08fd58e8p+0'),
    ('certify_allthestars_large', 62): ('verified', 1, 0, '0x1.9bcba4a2320acp+0'),
    ('certify_allthestars_large', 64): ('verified', 1, 0, '0x1.9d615a47dcc0cp+0'),
    ('certify_allthestars_large', 66): ('verified', 1, 0, '0x1.9edda487a32f6p+0'),
    ('certify_allthestars_large', 68): ('verified', 1, 0, '0x1.a042d46347fb1p+0'),
    ('certify_allthestars_large', 70): ('verified', 1, 0, '0x1.a192f4ee9c700p+0'),
    ('certify_allthestars_large', 72): ('verified', 1, 0, '0x1.a2cfd552c9f05p+0'),
    ('certify_allthestars_large', 74): ('verified', 1, 0, '0x1.a3fb11256f6e0p+0'),
    ('certify_allthestars_large', 76): ('verified', 1, 0, '0x1.a5161764c1beep+0'),
    ('certify_allthestars_large', 78): ('verified', 1, 0, '0x1.a6223058bce98p+0'),
    ('certify_allthestars_large', 80): ('verified', 1, 0, '0x1.a720828c49ccap+0'),
    ('certify_allthestars_large', 82): ('verified', 1, 0, '0x1.a812170708c03p+0'),
    ('certify_allthestars_large', 84): ('verified', 1, 0, '0x1.a8f7dce87d484p+0'),
    ('certify_allthestars_large', 86): ('verified', 1, 0, '0x1.a9d2ac7f17a7bp+0'),
    ('certify_allthestars_large', 88): ('verified', 1, 0, '0x1.aaa349f0a934ep+0'),
    ('certify_allthestars_large', 90): ('verified', 1, 0, '0x1.ab6a6785e36bfp+0'),
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

