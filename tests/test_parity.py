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
"""

import pytest

from repulse import certify
from repulse.potential import solve_s_alpha

TOL = 1e-12

# s_alpha enclosure (lo, hi) at tol 1e-12
S_ALPHA = {
    4: ('0x1.6a09e667f3b55p+0', '0x1.6a09e667f3c52p+0'),
    6: ('0x1.68cc2180b0f55p+0', '0x1.68cc2180b101cp+0'),
    8: ('0x1.5c91098bb515ep+0', '0x1.5c91098bb5193p+0'),
    10: ('0x1.516f5870bd361p+0', '0x1.516f5870bd36ep+0'),
    12: ('0x1.4864ee90ccdb4p+0', '0x1.4864ee90ccec8p+0'),
    14: ('0x1.411e719706048p+0', '0x1.411e71970604cp+0'),
    16: ('0x1.3b32ab87eb1cep+0', '0x1.3b32ab87eb1d1p+0'),
    18: ('0x1.364e085bb333dp+0', '0x1.364e085bb3340p+0'),
    20: ('0x1.32331b7580043p+0', '0x1.32331b7580046p+0'),
    22: ('0x1.2eb5393235b6ap+0', '0x1.2eb5393235b6cp+0'),
    24: ('0x1.2bb39bc64dec7p+0', '0x1.2bb39bc64dec9p+0'),
    26: ('0x1.2915dc442061ap+0', '0x1.2915dc442061dp+0'),
    28: ('0x1.26c98344488e7p+0', '0x1.26c98344488ecp+0'),
    30: ('0x1.24c05df94de62p+0', '0x1.24c05df94de68p+0'),
    32: ('0x1.22ef57a56257bp+0', '0x1.22ef57a562583p+0'),
    34: ('0x1.214dabb8b1208p+0', '0x1.214dabb8b1210p+0'),
    36: ('0x1.1fd453b9b95d3p+0', '0x1.1fd453b9b95dap+0'),
    38: ('0x1.1e7d9dffe80f1p+0', '0x1.1e7d9dffe80f5p+0'),
    40: ('0x1.1d44e0b476d99p+0', '0x1.1d44e0b476e5fp+0'),
}

# certify_all(alpha): inequality_id -> (boxes_processed, max_depth, min_lower_bound)
CERTIFY_ALL = {
    4: {
        'psihat_nonneg': (41, 6, '0x1.ea6e43b10c800p-9'),
        'w_inequality': (39, 6, '0x1.ea6e43b10c800p-9'),
        'psi4_le_F4': (258, 8, '0x1.0ae341c7472f1p-15'),
    },
    6: {
        'psihat_nonneg': (2, 0, '0x1.1307ad83662f7p-8'),
        'eta0': (1, 0, '0x1.2155750dde77cp-1'),
        'eta1': (85, 8, '0x1.97bd00077f8a7p-10'),
        'eta_ge2': (73, 4, '0x1.08847b3f6dc4dp-18'),
    },
    8: {
        'psihat_nonneg': (2, 0, '0x1.34c9af3f990dap-3'),
        'eta0': (1, 0, '0x1.352a0d1fb4b57p+0'),
        'eta1': (55, 7, '0x1.98bc6b25c2b1ep-5'),
        'eta_ge2': (65, 3, '0x1.38828aab9a64bp-16'),
    },
    10: {
        'psihat_nonneg': (2, 0, '0x1.b7ebb2f5885d3p-3'),
        'eta0': (1, 0, '0x1.75fa0d06f054dp+0'),
        'eta1': (39, 6, '0x1.ab0fd358986ffp-8'),
        'eta_ge2': (63, 3, '0x1.c6f69254798c1p-16'),
    },
    12: {
        'psihat_nonneg': (2, 0, '0x1.7a6848b9981c4p-3'),
        'eta0': (1, 0, '0x1.90b82c7d0cec9p+0'),
        'eta1': (35, 6, '0x1.70e108157770fp-5'),
        'eta_ge2': (63, 3, '0x1.11b886a58600ep-15'),
    },
    14: {
        'psihat_nonneg': (2, 0, '0x1.c600b37f64314p-3'),
        'eta0': (1, 0, '0x1.9c8f13a4b3a4ap+0'),
        'eta1': (31, 6, '0x1.8db40af14729fp-5'),
        'eta_ge2': (63, 3, '0x1.31b076ac0f381p-15'),
    },
}

# acceptance 4 beyond certify_all: (function, alpha) -> (status, boxes, max_depth, min_lower_bound)
ACCEPTANCE_4 = {
    ('certify_T', 4): ('verified', 1, 0, '0x1.12aa6c1674537p-2'),
    ('certify_T', 6): ('verified', 1, 0, '0x1.87c895ecd4774p-2'),
    ('certify_T', 8): ('verified', 1, 0, '0x1.af4928c624787p-2'),
    ('certify_T', 10): ('verified', 1, 0, '0x1.c2fe2a36c92b7p-2'),
    ('certify_L', 6): ('verified', 1, 0, '0x1.1307ad83662f7p-8'),
    ('certify_L', 8): ('verified', 1, 0, '0x1.34c9af3f990dap-3'),
    ('certify_L', 10): ('verified', 1, 0, '0x1.b7ebb2f5885d3p-3'),
    ('certify_w_inequality', None): ('verified', 39, 6, '0x1.ea6e43b11ca00p-9'),
    ('certify_T_large', 12): ('verified', 1, 0, '0x1.ccba9d07d2932p-2'),
    ('certify_L_large', 12): ('verified', 1, 0, '0x1.7a6848b9981c4p-3'),
    ('certify_T_large', 14): ('verified', 1, 0, '0x1.d5511ab950e6dp-2'),
    ('certify_L_large', 14): ('verified', 1, 0, '0x1.c600b37f64314p-3'),
    ('certify_T_large', 16): ('verified', 1, 0, '0x1.db6cb6fa31522p-2'),
    ('certify_L_large', 16): ('verified', 1, 0, '0x1.fbc9625819629p-3'),
    ('certify_T_large', 18): ('verified', 1, 0, '0x1.dfffc2d576433p-2'),
    ('certify_L_large', 18): ('verified', 1, 0, '0x1.120a48b211b21p-2'),
    ('certify_T_large', 20): ('verified', 1, 0, '0x1.e38e2a25c51a1p-2'),
    ('certify_L_large', 20): ('verified', 1, 0, '0x1.21b4877c76313p-2'),
    ('certify_T_large', 22): ('verified', 1, 0, '0x1.e66662d3530d1p-2'),
    ('certify_L_large', 22): ('verified', 1, 0, '0x1.2e3c75866c78ep-2'),
    ('certify_T_large', 24): ('verified', 1, 0, '0x1.e8ba2dacb4238p-2'),
    ('certify_L_large', 24): ('verified', 1, 0, '0x1.387d11d18a50bp-2'),
    ('certify_T_large', 26): ('verified', 1, 0, '0x1.eaaaaa7427afcp-2'),
    ('certify_L_large', 26): ('verified', 1, 0, '0x1.41083b4d66b64p-2'),
    ('certify_T_large', 28): ('verified', 1, 0, '0x1.ec4ec4def06e4p-2'),
    ('certify_L_large', 28): ('verified', 1, 0, '0x1.4842e77823b05p-2'),
    ('certify_T_large', 30): ('verified', 1, 0, '0x1.edb6db6a6d8c8p-2'),
    ('certify_L_large', 30): ('verified', 1, 0, '0x1.4e7531b7fe1bap-2'),
    ('certify_T_large', 32): ('verified', 1, 0, '0x1.eeeeeeee1fb53p-2'),
    ('certify_L_large', 32): ('verified', 1, 0, '0x1.53d3fa8f60b91p-2'),
    ('certify_T_large', 34): ('verified', 1, 0, '0x1.efffffffccdfbp-2'),
    ('certify_L_large', 34): ('verified', 1, 0, '0x1.5886ea495e89fp-2'),
    ('certify_T_large', 36): ('verified', 1, 0, '0x1.f0f0f0f0e44f5p-2'),
    ('certify_L_large', 36): ('verified', 1, 0, '0x1.5cac54655f584p-2'),
    ('certify_T_large', 38): ('verified', 1, 0, '0x1.f1c71c71c3fc9p-2'),
    ('certify_L_large', 38): ('verified', 1, 0, '0x1.605bcf28cb91fp-2'),
    ('certify_T_large', 40): ('verified', 1, 0, '0x1.f286bca1ae625p-2'),
    ('certify_L_large', 40): ('verified', 1, 0, '0x1.63a7f9a1b86ecp-2'),
    ('certify_T_large', 42): ('verified', 1, 0, '0x1.f333333333021p-2'),
    ('certify_L_large', 42): ('verified', 1, 0, '0x1.669fb974f2132p-2'),
    ('certify_T_large', 44): ('verified', 1, 0, '0x1.f3cf3cf3cf30bp-2'),
    ('certify_L_large', 44): ('verified', 1, 0, '0x1.694f1ddeb80ddp-2'),
    ('certify_T_large', 46): ('verified', 1, 0, '0x1.f45d1745d1714p-2'),
    ('certify_L_large', 46): ('verified', 1, 0, '0x1.6bc004ca8332fp-2'),
    ('certify_T_large', 48): ('verified', 1, 0, '0x1.f4de9bd37a6e7p-2'),
    ('certify_L_large', 48): ('verified', 1, 0, '0x1.6dfa94d9744e3p-2'),
    ('certify_T_large', 50): ('verified', 1, 0, '0x1.f555555555551p-2'),
    ('certify_L_large', 50): ('verified', 1, 0, '0x1.700598e726a58p-2'),
    ('certify_T_large', 52): ('verified', 1, 0, '0x1.f5c28f5c28f5ap-2'),
    ('certify_L_large', 52): ('verified', 1, 0, '0x1.71e6c5979784dp-2'),
    ('certify_T_large', 54): ('verified', 1, 0, '0x1.f627627627625p-2'),
    ('certify_L_large', 54): ('verified', 1, 0, '0x1.73a2eed7ffb55p-2'),
    ('certify_T_large', 56): ('verified', 1, 0, '0x1.f684bda12f682p-2'),
    ('certify_L_large', 56): ('verified', 1, 0, '0x1.753e317bee66fp-2'),
    ('certify_T_large', 58): ('verified', 1, 0, '0x1.f6db6db6db6d9p-2'),
    ('certify_L_large', 58): ('verified', 1, 0, '0x1.76bc13ef95307p-2'),
    ('certify_T_large', 60): ('verified', 1, 0, '0x1.f72c234f72c21p-2'),
    ('certify_L_large', 60): ('verified', 1, 0, '0x1.781fa0264af4fp-2'),
    ('certify_T_large', 62): ('verified', 1, 0, '0x1.f777777777775p-2'),
    ('certify_L_large', 62): ('verified', 1, 0, '0x1.796b78595b019p-2'),
    ('certify_T_large', 64): ('verified', 1, 0, '0x1.f7bdef7bdef79p-2'),
    ('certify_L_large', 64): ('verified', 1, 0, '0x1.7aa1e7c2ee263p-2'),
    ('certify_T_large', 66): ('verified', 1, 0, '0x1.f7ffffffffffep-2'),
    ('certify_L_large', 66): ('verified', 1, 0, '0x1.7bc4f035e818ap-2'),
    ('certify_T_large', 68): ('verified', 1, 0, '0x1.f83e0f83e0f81p-2'),
    ('certify_L_large', 68): ('verified', 1, 0, '0x1.7cd6553d10f48p-2'),
    ('certify_T_large', 70): ('verified', 1, 0, '0x1.f878787878785p-2'),
    ('certify_L_large', 70): ('verified', 1, 0, '0x1.7dd7a543cdffbp-2'),
    ('certify_T_large', 72): ('verified', 1, 0, '0x1.f8af8af8af8adp-2'),
    ('certify_L_large', 72): ('verified', 1, 0, '0x1.7eca412ce6a3ep-2'),
    ('certify_T_large', 74): ('verified', 1, 0, '0x1.f8e38e38e38e1p-2'),
    ('certify_L_large', 74): ('verified', 1, 0, '0x1.7faf62a57de99p-2'),
    ('certify_T_large', 76): ('verified', 1, 0, '0x1.f914c1bacf912p-2'),
    ('certify_L_large', 76): ('verified', 1, 0, '0x1.8088217182a13p-2'),
    ('certify_T_large', 78): ('verified', 1, 0, '0x1.f9435e50d7941p-2'),
    ('certify_L_large', 78): ('verified', 1, 0, '0x1.815577e1f2e34p-2'),
    ('certify_T_large', 80): ('verified', 1, 0, '0x1.f96f96f96f96dp-2'),
    ('certify_L_large', 80): ('verified', 1, 0, '0x1.8218469b63f40p-2'),
    ('certify_T_large', 82): ('verified', 1, 0, '0x1.f999999999997p-2'),
    ('certify_L_large', 82): ('verified', 1, 0, '0x1.82d157cb8f5d9p-2'),
    ('certify_T_large', 84): ('verified', 1, 0, '0x1.f9c18f9c18f9ap-2'),
    ('certify_L_large', 84): ('verified', 1, 0, '0x1.838161e6a5edbp-2'),
    ('certify_T_large', 86): ('verified', 1, 0, '0x1.f9e79e79e79e5p-2'),
    ('certify_L_large', 86): ('verified', 1, 0, '0x1.84290a0072462p-2'),
    ('certify_T_large', 88): ('verified', 1, 0, '0x1.fa0be82fa0be6p-2'),
    ('certify_L_large', 88): ('verified', 1, 0, '0x1.84c8e5d19a531p-2'),
    ('certify_T_large', 90): ('verified', 1, 0, '0x1.fa2e8ba2e8ba0p-2'),
    ('certify_L_large', 90): ('verified', 1, 0, '0x1.85617d7657d3cp-2'),
    ('certify_T_large', 92): ('verified', 1, 0, '0x1.fa4fa4fa4fa4dp-2'),
    ('certify_L_large', 92): ('verified', 1, 0, '0x1.85f34cf1a0d19p-2'),
    ('certify_T_large', 94): ('verified', 1, 0, '0x1.fa6f4de9bd378p-2'),
    ('certify_L_large', 94): ('verified', 1, 0, '0x1.867ec57dd0603p-2'),
    ('certify_T_large', 96): ('verified', 1, 0, '0x1.fa8d9df51b3bcp-2'),
    ('certify_L_large', 96): ('verified', 1, 0, '0x1.87044eb2550edp-2'),
    ('certify_T_large', 98): ('verified', 1, 0, '0x1.faaaaaaaaaaa8p-2'),
    ('certify_L_large', 98): ('verified', 1, 0, '0x1.87844784a98b9p-2'),
    ('certify_T_large', 100): ('verified', 1, 0, '0x1.fac687d6343e9p-2'),
    ('certify_L_large', 100): ('verified', 1, 0, '0x1.87ff0729d6033p-2'),
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

