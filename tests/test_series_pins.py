"""Bit pins of every series over n that the lane kernel sums.

Recorded on the scalar per-n loops the lane sums replaced; each value must
keep its bits.  Pinned: both endpoints of every constant-check value of
every route at alpha 4..14 (tests/test_parity.py pins only the lower
bounds that end up in certificates), the head and tail of lattice_energy
on a seeded grid of (alpha, t, N), first_order_residual, decay_constant
and a SHA-256 of the build_coefficients tables.  The values that read a
solved context (the constant checks, first_order_residual, decay_constant
and the tables) were re-pinned when the interval-Newton spacing solve
narrowed s_alpha: each enclosure overlaps its old value, or, where it is a
point taken from a lower bound (w_inequality's c1 - 2), lies above it.
The L values (L_alpha and its psihat_nonneg piece, alpha 6..14) were
re-pinned when L's kernel -2/3 + 4R(pi n) was taken in its closed form
-4/(pi n)^2: each new enclosure lies inside its old value.  The values
that sum the certificates' coefficient rows (T_alpha, L_alpha, the
psi4_le_F4 constant for x >= 9, the eta_ge2 constant for x >= 10 and the
T and L pieces of psihat_nonneg) were re-pinned when that head went from
|n| <= 64 to |n| <= 16: each new enclosure holds its old value.  The
upper ends of the psi4_le_F4 constant for x >= 9 and the eta_ge2 constant
for x >= 10 were re-pinned when the one-sided tail of
sum_n (3 n^2 F(n) + n^3 F'(n)) took the factor alpha - 3 in place of
3 + alpha: each new enclosure lies inside its old value, with the same
lower end.  The values that read a solved context were re-pinned again
when the spacing solve took the bracket around a float root, whose
enclosures at tol 1e-12 are 5.0e-13 wide where the Newton steps left them
4.4e-16 to 6.1e-14 wide: each new enclosure holds its old value, except
w_inequality's c1 - 2 and its scaled form at alpha 4, points taken from a
lower bound, which now lie below their old values (by about 4e-13).  No
status, box count or depth moved.  Every value here was re-pinned again
when every product and quotient came to step one ulp outward, where an
error-free transformation used to decide whether it needed to: each new
enclosure holds its old value, except w_inequality's c1 - 2 and its
scaled form at alpha 4 (read again by psihat_nonneg), points taken from a
lower bound, which now lie lower by a few ulps.
"""

import hashlib

import pytest

from repulse import auxfn, certify
from repulse.interval import Interval
from repulse.potential import first_order_residual, lattice_energy, solve_s_alpha

# (inequality_id, alpha) -> (lo, hi) of each value passed to a constant check, in order
CHECKS = {
    ('T_alpha', 4): (
        ('0x1.12aa04e671964p-2', '0x1.12af8f0bf4196p-2'),
    ),
    ('w_inequality', 4): (
        ('0x1.3333333332b40p+0', '0x1.3333333332b40p+0'),
        ('0x1.23cb661471cc4p-2', '0x1.23cb661471cd4p-2'),
    ),
    ('psi4_le_F4', 4): (
        ('0x1.ce40f8407bdb9p-3', '0x1.0704238b8787ap-2'),
    ),
    ('psihat_nonneg', 4): (
        ('0x1.7a17a17a16893p-3', '0x1.7a17a17a18b82p-3'),
        ('0x1.12aa04e671964p-2', '0x1.12af8f0bf4196p-2'),
        ('0x1.3333333332b40p+0', '0x1.3333333332b40p+0'),
        ('0x1.23cb661471cc4p-2', '0x1.23cb661471cd4p-2'),
    ),
    ('T_alpha', 6): (
        ('0x1.87c895bd57960p-2', '0x1.87c897741204cp-2'),
    ),
    ('L_alpha', 6): (
        ('0x1.12d4f702b78d6p-8', '0x1.1ad787d82161cp-8'),
    ),
    ('w_inequality', 6): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ec8p-2', '0x1.23cb661473ee8p-2'),
    ),
    ('eta_ge2', 6): (
        ('0x1.f4a7e2a43e4f5p-2', '0x1.f4a7e2a43e69bp-2'),
        ('0x1.fea9f56206b96p-2', '0x1.11447bf9a6671p-1'),
    ),
    ('psihat_nonneg', 6): (
        ('0x1.87c895bd57960p-2', '0x1.87c897741204cp-2'),
        ('0x1.12d4f702b78d6p-8', '0x1.1ad787d82161cp-8'),
    ),
    ('T_alpha', 8): (
        ('0x1.af4928c607c1ep-2', '0x1.af4928c6d8ab2p-2'),
    ),
    ('L_alpha', 8): (
        ('0x1.34c9ae54be0fep-3', '0x1.34c9ccb525455p-3'),
    ),
    ('w_inequality', 8): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ec8p-2', '0x1.23cb661473ee8p-2'),
    ),
    ('eta_ge2', 8): (
        ('0x1.fca0ff7e04fb6p-2', '0x1.fca0ff7e05065p-2'),
        ('0x1.5bdc3a53d2753p-1', '0x1.5be0da7802b4bp-1'),
    ),
    ('psihat_nonneg', 8): (
        ('0x1.af4928c607c1ep-2', '0x1.af4928c6d8ab2p-2'),
        ('0x1.34c9ae54be0fep-3', '0x1.34c9ccb525455p-3'),
    ),
    ('T_alpha', 10): (
        ('0x1.c2fe2a36c8a15p-2', '0x1.c2fe2a36ca094p-2'),
    ),
    ('L_alpha', 10): (
        ('0x1.b7ebb2f4e4cccp-3', '0x1.b7ebb30779196p-3'),
    ),
    ('w_inequality', 10): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ec8p-2', '0x1.23cb661473ee8p-2'),
    ),
    ('eta_ge2', 10): (
        ('0x1.fee1270ee118bp-2', '0x1.fee1270ee11d7p-2'),
        ('0x1.83fee0660ebdap-1', '0x1.83fee2bb4f973p-1'),
    ),
    ('psihat_nonneg', 10): (
        ('0x1.c2fe2a36c8a15p-2', '0x1.c2fe2a36ca094p-2'),
        ('0x1.b7ebb2f4e4cccp-3', '0x1.b7ebb30779196p-3'),
    ),
    ('T_alpha', 12): (
        ('0x1.ccba9d07d2931p-2', '0x1.ccba9d07d2936p-2'),
    ),
    ('L_alpha', 12): (
        ('0x1.7a6848b9981c9p-3', '0x1.7a6848b9981dbp-3'),
    ),
    ('w_inequality', 12): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ec8p-2', '0x1.23cb661473ee8p-2'),
    ),
    ('eta_ge2', 12): (
        ('0x1.ff9a478456af6p-2', '0x1.ff9a478456b18p-2'),
        ('0x1.9ce2bad8f2772p-1', '0x1.9ce2bada75e28p-1'),
    ),
    ('psihat_nonneg', 12): (
        ('0x1.ccba9d07d2931p-2', '0x1.ccba9d07d2936p-2'),
        ('0x1.7a6848b9981c9p-3', '0x1.7a6848b9981dbp-3'),
    ),
    ('T_alpha', 14): (
        ('0x1.d5511ab950e6cp-2', '0x1.d5511ab950e71p-2'),
    ),
    ('L_alpha', 14): (
        ('0x1.c600b37f6431ap-3', '0x1.c600b37f6432cp-3'),
    ),
    ('w_inequality', 14): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ec8p-2', '0x1.23cb661473ee8p-2'),
    ),
    ('eta_ge2', 14): (
        ('0x1.ffda654fa8bf5p-2', '0x1.ffda654fa8c05p-2'),
        ('0x1.adc114188a8c1p-1', '0x1.adc114189bf88p-1'),
    ),
    ('psihat_nonneg', 14): (
        ('0x1.d5511ab950e6cp-2', '0x1.d5511ab950e71p-2'),
        ('0x1.c600b37f6431ap-3', '0x1.c600b37f6432cp-3'),
    ),
}

# (alpha, t.lo, t.hi, N) -> (head, tail) of lattice_energy
LATTICE = {
    (4, '0x1.be0058e6b437cp+1', '0x1.be0058e6b437cp+1', 2): (('0x1.c463de669b1bcp+1', '0x1.c463de669b1c1p+1'), ('0x1.e8bfacf859babp-11', '0x1.f23386abb0d1cp-11')),
    (4, '0x1.9b0f8350791fdp+1', '0x1.9b0f86021e4e8p+1', 3): (('0x1.a34bdd0775c23p+1', '0x1.a34bdffdb607ap+1'), ('0x1.d8c045b019556p-12', '0x1.dbf83db3a38a7p-12')),
    (4, '0x1.ea070058fe334p+1', '0x1.ea070059004e1p+1', 17): (('0x1.eef1aa560495fp+1', '0x1.eef1aa5606cc1p+1'), ('0x1.29128a196b8c6p-19', '0x1.291c1a512c2fdp-19')),
    (4, '0x1.c6deaf3cd38eep+1', '0x1.c6deaf3ce7184p+1', 64): (('0x1.cd0215cce6fb1p+1', '0x1.cd0215ccfbd4bp+1'), ('0x1.db7bd2fc7ed03p-25', '0x1.db7ccaf6b8926p-25')),
    (6, '0x1.3c82f6855bf84p+1', '0x1.3c82f6855c1b1p+1', 2): (('0x1.3f4fd89390d11p+1', '0x1.3f4fd89390f63p+1'), ('0x1.35cf832ba7cacp-15', '0x1.3c042abacea83p-15')),
    (6, '0x1.84595958af75dp+1', '0x1.84595958af764p+1', 3): (('0x1.855c48bdd7ff1p+1', '0x1.855c48bdd7ffcp+1'), ('0x1.6907ab2a9e28cp-19', '0x1.6b3ded9d161f3p-19')),
    (6, '0x1.433236d6cd19fp+0', '0x1.433236d6cd1d8p+0', 17): (('0x1.c5fa0750fdb40p+0', '0x1.c5fa0750fdc0fp+0'), ('0x1.4508a91c6ce99p-24', '0x1.450fbfcecc73bp-24')),
    (6, '0x1.58d9e33ad2982p-1', '0x1.58d9e33ad4135p-1', 64): (('0x1.0fc51991976b4p+1', '0x1.0fc5199199922p+1'), ('0x1.632ab1378bc58p-29', '0x1.632b27a808b19p-29')),
    (8, '0x1.4adc378b5b751p+1', '0x1.4adc39b672d74p+1', 2): (('0x1.4b3182901c77bp+1', '0x1.4b3184c03b298p+1'), ('0x1.da02206767710p-22', '0x1.e15ef30ec36cep-22')),
    (8, '0x1.1a39d356d298fp+1', '0x1.1a39d356d29c1p+1', 3): (('0x1.1b3d193a0eef4p+1', '0x1.1b3d193a0ef2cp+1'), ('0x1.3c78043bd18d6p-23', '0x1.3dc5228b6abb9p-23')),
    (8, '0x1.6d4b8bb429019p+1', '0x1.6d4b8bb42901fp+1', 17): (('0x1.6d7636f2a344ap+1', '0x1.6d7636f2a3453p+1'), ('0x1.9bf066de473b7p-42', '0x1.9bf4f0cc1e1afp-42')),
    (8, '0x1.ada52e1e0d28ep+1', '0x1.ada52e1e0d582p+1', 64): (('0x1.adb2e2edc135cp+1', '0x1.adb2e2edc1653p+1'), ('0x1.d8850c0146a95p-57', '0x1.d8855739e1984p-57')),
    (12, '0x1.9d30c6d86c13cp+1', '0x1.9d30c6d86c143p+1', 2): (('0x1.9d30f128bc3aap+1', '0x1.9d30f128bc3b5p+1'), ('0x1.5872bb7c8d0f0p-37', '0x1.5a9cdf3a77b12p-37')),
    (12, '0x1.38fa93f5c8e98p+1', '0x1.38fa93f5c8e98p+1', 3): (('0x1.38fe165852635p+1', '0x1.38fe165852639p+1'), ('0x1.e3e43a32ebab9p-38', '0x1.e480bcce6ea63p-38')),
    (12, '0x1.2f9434e41be1ap+1', '0x1.2f9434e428eb8p+1', 17): (('0x1.2f991d4f99069p+1', '0x1.2f991d4fa6136p+1'), ('0x1.4ee43c570828ep-62', '0x1.4ee4def4eb549p-62')),
    (12, '0x1.802a3f1bae17ap-1', '0x1.802a3f1bae17ap-1', 64): (('0x1.1bab8093017eep+1', '0x1.1bab80930180cp+1'), ('0x1.f6c542dfeacd6p-65', '0x1.f6c54f354a098p-65')),
    (30, '0x1.79a6d452f1fe9p+1', '0x1.79a6d452f1fe9p+1', 2): (('0x1.79a6d452f2052p+1', '0x1.79a6d452f2056p+1'), ('0x1.23027bf2da467p-92', '0x1.2303654b24349p-92')),
    (30, '0x1.38d81d01cb2c8p+0', '0x1.38d81d3647bacp+0', 3): (('0x1.3a5df62cc0c42p+0', '0x1.3a5df669241fap+0'), ('0x1.874908da73893p-68', '0x1.874920f0ee851p-68')),
    (30, '0x1.157ce58a51e88p+1', '0x1.157ce58ef9b5ap+1', 17): (('0x1.157ce58b17b3ap+1', '0x1.157ce58fbf80fp+1'), ('0x1.cf3550800be10p-157', '0x1.cf3551a3a74fcp-157')),
    (30, '0x1.226ad3d1c8275p+1', '0x1.226ad3d1c8275p+1', 64): (('0x1.226ad3d1fcf42p+1', '0x1.226ad3d1fcf45p+1'), ('0x1.70b759c5b0479p-213', '0x1.70b759dfbdc35p-213')),
    (100, '0x1.7da932dcf8a80p+1', '0x1.7da932dcf8a80p+1', 2): (('0x1.7da932dcf8a7fp+1', '0x1.7da932dcf8a82p+1'), ('0x1.616470cfc0048p-314', '0x1.616470cfc0201p-314')),
    (100, '0x1.6b4b628f94172p+1', '0x1.6b4b628f94172p+1', 3): (('0x1.6b4b628f94171p+1', '0x1.6b4b628f94174p+1'), ('0x1.00f75b7bd9aa3p-348', '0x1.00f75b7bd9c00p-348')),
    (100, '0x1.84efdb58badf9p+1', '0x1.84efdb58badf9p+1', 17): (('0x1.84efdb58badf8p+1', '0x1.84efdb58badfcp+1'), ('0x1.366f1e8107dddp-575', '0x1.366f1e8107f27p-575')),
    (100, '0x1.248be9e0660f2p+1', '0x1.248be9e0660f2p+1', 64): (('0x1.248be9e0660f1p+1', '0x1.248be9e0660f4p+1'), ('0x1.0ac6d837d58dep-719', '0x1.0ac6d837d5a5ap-719')),
    # t(2N + 1/2) <= 1.5, where the power-sum tail bound is the smaller one
    (4, '0x1.51eb851eb851fp-2', '0x1.51eb851eb851fp-2', 2): (('0x1.89791cc30fe18p+0', '0x1.89791cc30fe20p+0'), ('0x1.00154567a8ed9p-1', '0x1.79a8a7d267819p-1')),
    (8, '0x1.3333333333333p-2', '0x1.3333333333333p-2', 2): (('0x1.7d73e0d225d03p+0', '0x1.7d73e0d225d0ap+0'), ('0x1.10b82278e357ap-1', '0x1.25447b0bdb262p-1')),
    (6, '0x1.78d4fdf3b645ap-7', '0x1.78d4fdf3b645ap-7', 64): (('0x1.73789cd207e60p+0', '0x1.73789cd207e85p+0'), ('0x1.2d85d3b645860p-1', '0x1.4b21719ff78a3p-1')),
}

# alpha -> first_order_residual(ctx) (N = 128); (alpha, N) -> at that N
RESIDUAL = {
    4: ('-0x1.5b00019d39fa8p-23', '0x1.53c400744e7eap-21'),
    6: ('-0x1.3c800849f9666p-38', '0x1.4f6202127e59ap-36'),
    8: ('-0x1.f14bd1238b579p-40', '0x1.f00bd1238b579p-40'),
    10: ('-0x1.342000276d3f6p-39', '0x1.314000276d3f6p-39'),
    12: ('-0x1.7178000000798p-39', '0x1.6e20000000798p-39'),
    (4, 2): ('-0x1.074fe8f5f7615p-5', '0x1.7605df45f7313p-4'),
}

# (alpha, N) -> SHA-256 of the hex endpoints of Fn, dFn and the three tails
COEFFS = {
    (4, 8): '8103b64dc32b71825f63a85824d4557bff937b5216ead3e1306eb274394931b6',
    (4, 64): '87f44dcab53915c56179eb759373c88af75243b3d07e8bc42ae62276f51a3e8b',
    (4, 256): 'f46aa2e774a5a1e30134685d2bc179695f17763f2e48ae802063edce7dd57a43',
    (6, 8): 'e979ee7d4d7bdafb23ba06097659f9cffe634d481608232d0fb4d51998f8a802',
    (6, 64): '212e0840a1894f525c6a1c5ae46c888da27c5ec1512ca73f24c8e6a128282246',
    (6, 256): 'adbcf91a284b3076ded3070971a0c8705f3ac6f02d3e478eec3b36deb76d8144',
    (8, 8): '73edb30e1ac8702ae5188d5610a3c81499a74b9e5e759acea88c67f06cad1e96',
    (8, 64): '74862ab290444167b0120fd9e8e0e46212831fbc09c26db37661e3bc693fd605',
    (8, 256): '84249c0743d4fd9dd37abbe873d76f6f64a4a09ba01cb3434b159ada480f588a',
    (10, 8): '4024cddace3cb5647eb05042a78cbedb7119c222b9583e0d9b937566afaebac4',
    (10, 64): '802266c2633a4cc042d8415c42e72e6558ac1a768873e37042c71a78b64f41f6',
    (10, 256): '23898bdca771cc7c6f7ced8a3a3de2f645b583ec976e0fae8aa9ba011d466b7c',
    (12, 8): 'e8456d8325a7dd26adb4a27e226bed4a24e5a0697188ca9d69160c45af4c073d',
    (12, 64): '292cb1aa947d76e318856ce22903852523f07d05be1eec442119c31c1faa6238',
    (12, 256): '5955f16f61242af1c3081712cd155d679f08a969aab21efbb11664ed0b590e71',
    (14, 8): 'ef7652263bee5aeac0b39ec2a41b3c6e9540c42ebd83d24b0485c8072a2e8110',
    (14, 64): '83858d0fdfbf4542408b3d5bc4d6abeb0284b95c0bad4295c79237d51576e273',
    (14, 256): '2757d49b13b36f7eec20672eb00e5638bba150be1d53a586d9528f6dbc3fce8c',
}

# alpha -> decay_constant(build_coefficients(ctx, 256))
DECAY = {
    4: ('0x0.0p+0', '0x1.b16c270ef0d89p+2'),
    6: ('0x0.0p+0', '0x1.1c0bb4a23d44ep+2'),
    8: ('0x0.0p+0', '0x1.fdb242b8562c6p+1'),
    10: ('0x0.0p+0', '0x1.e42e69e2d60c9p+1'),
}


def _hex(iv):
    return iv.lo.hex(), iv.hi.hex()


@pytest.fixture(scope="module")
def ctxs(ctx_by_alpha):
    return {**ctx_by_alpha, 14: solve_s_alpha(14, 1e-12)}


def test_constant_check_values(ctxs, monkeypatch):
    seen = []
    monkeypatch.setattr(certify._Run, "check",
                        lambda self, value, policy, at=0.0: seen.append(_hex(value)))
    monkeypatch.setattr(certify, "_bnb", lambda *args: None)
    got = {}
    for alpha in range(4, 15, 2):
        for r in certify.ROUTES:
            if r.inequality_id != "all" and alpha in r.alphas:
                seen.clear()
                r.call(alpha, ctxs[alpha] if r.needs_ctx else None, None)
                if seen:
                    got[r.inequality_id, alpha] = tuple(seen)
        seen.clear()
        certify.certify_psihat_nonneg(auxfn.build_coefficients(ctxs[alpha], 64))
        got["psihat_nonneg", alpha] = tuple(seen)
    assert got == CHECKS


def test_lattice_energy_bits():
    got = {}
    for alpha, lo, hi, N in LATTICE:
        terms = lattice_energy(alpha, Interval(float.fromhex(lo), float.fromhex(hi)), N)
        got[alpha, lo, hi, N] = (_hex(terms.head), _hex(terms.tail))
    assert got == LATTICE


def test_first_order_residual_bits(ctxs):
    got = {a: _hex(first_order_residual(ctxs[a])) for a in range(4, 13, 2)}
    got[4, 2] = _hex(first_order_residual(ctxs[4], 2))
    assert got == RESIDUAL


def _digest(coeffs):
    h = hashlib.sha256()
    rows = [lanes.interval(n) for lanes in (coeffs.F, coeffs.dF) for n in range(coeffs.N + 1)]
    for iv in (*rows, coeffs.tail_F, coeffs.tail_dF, coeffs.tail_n2F):
        h.update(f"{iv.lo.hex()} {iv.hi.hex()}\n".encode())
    return h.hexdigest()


def test_coefficient_table_digests(ctxs):
    got = {(a, N): _digest(auxfn.build_coefficients(ctxs[a], N)) for a, N in COEFFS}
    assert got == COEFFS


def test_decay_constant_bits(coeffs_by_alpha):
    assert {a: _hex(auxfn.decay_constant(coeffs_by_alpha[a])) for a in DECAY} == DECAY
