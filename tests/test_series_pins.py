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
lower end.
"""

import hashlib

import pytest

from repulse import auxfn, certify
from repulse.interval import Interval
from repulse.potential import first_order_residual, lattice_energy, solve_s_alpha

# (inequality_id, alpha) -> (lo, hi) of each value passed to a constant check, in order
CHECKS = {
    ('T_alpha', 4): (
        ('0x1.12aa04e6721e6p-2', '0x1.12af8f0bf3920p-2'),
    ),
    ('w_inequality', 4): (
        ('0x1.333333333325ap+0', '0x1.333333333325ap+0'),
        ('0x1.23cb661473b34p-2', '0x1.23cb661473b38p-2'),
    ),
    ('psi4_le_F4', 4): (
        ('0x1.ce40f8409369fp-3', '0x1.0704238b7ba92p-2'),
    ),
    ('psihat_nonneg', 4): (
        ('0x1.7a17a17a17808p-3', '0x1.7a17a17a17bf8p-3'),
        ('0x1.12aa04e6721e6p-2', '0x1.12af8f0bf3920p-2'),
        ('0x1.333333333325ap+0', '0x1.333333333325ap+0'),
        ('0x1.23cb661473b34p-2', '0x1.23cb661473b38p-2'),
    ),
    ('T_alpha', 6): (
        ('0x1.87c895bd580aep-2', '0x1.87c8977411949p-2'),
    ),
    ('L_alpha', 6): (
        ('0x1.12d4f703b9a8bp-8', '0x1.1ad787d71fe65p-8'),
    ),
    ('w_inequality', 6): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ed0p-2', '0x1.23cb661473ee4p-2'),
    ),
    ('eta_ge2', 6): (
        ('0x1.f4a7e2a43e5b9p-2', '0x1.f4a7e2a43e5dfp-2'),
        ('0x1.fea9f56210f60p-2', '0x1.11447bf9a1546p-1'),
    ),
    ('psihat_nonneg', 6): (
        ('0x1.87c895bd580aep-2', '0x1.87c8977411949p-2'),
        ('0x1.12d4f703b9a8bp-8', '0x1.1ad787d71fe65p-8'),
    ),
    ('T_alpha', 8): (
        ('0x1.af4928c60838fp-2', '0x1.af4928c6d836ep-2'),
    ),
    ('L_alpha', 8): (
        ('0x1.34c9ae54c7aeap-3', '0x1.34c9ccb51b9ecp-3'),
    ),
    ('w_inequality', 8): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ed0p-2', '0x1.23cb661473ee4p-2'),
    ),
    ('eta_ge2', 8): (
        ('0x1.fca0ff7e0500cp-2', '0x1.fca0ff7e05011p-2'),
        ('0x1.5bdc3a53d7c1fp-1', '0x1.5be0da77fd5d7p-1'),
    ),
    ('psihat_nonneg', 8): (
        ('0x1.af4928c60838fp-2', '0x1.af4928c6d836ep-2'),
        ('0x1.34c9ae54c7aeap-3', '0x1.34c9ccb51b9ecp-3'),
    ),
    ('T_alpha', 10): (
        ('0x1.c2fe2a36c918dp-2', '0x1.c2fe2a36c9925p-2'),
    ),
    ('L_alpha', 10): (
        ('0x1.b7ebb2f4f00f6p-3', '0x1.b7ebb3076dd40p-3'),
    ),
    ('w_inequality', 10): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ed0p-2', '0x1.23cb661473ee4p-2'),
    ),
    ('eta_ge2', 10): (
        ('0x1.fee1270ee11b1p-2', '0x1.fee1270ee11b2p-2'),
        ('0x1.83fee06614f06p-1', '0x1.83fee2bb49617p-1'),
    ),
    ('psihat_nonneg', 10): (
        ('0x1.c2fe2a36c918dp-2', '0x1.c2fe2a36c9925p-2'),
        ('0x1.b7ebb2f4f00f6p-3', '0x1.b7ebb3076dd40p-3'),
    ),
    ('T_alpha', 12): (
        ('0x1.ccba9d07d2932p-2', '0x1.ccba9d07d2935p-2'),
    ),
    ('L_alpha', 12): (
        ('0x1.7a6848b9981cap-3', '0x1.7a6848b9981dbp-3'),
    ),
    ('w_inequality', 12): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ed0p-2', '0x1.23cb661473ee4p-2'),
    ),
    ('eta_ge2', 12): (
        ('0x1.ff9a478456b04p-2', '0x1.ff9a478456b09p-2'),
        ('0x1.9ce2bad8f8c84p-1', '0x1.9ce2bada6f93ep-1'),
    ),
    ('psihat_nonneg', 12): (
        ('0x1.ccba9d07d2932p-2', '0x1.ccba9d07d2935p-2'),
        ('0x1.7a6848b9981cap-3', '0x1.7a6848b9981dbp-3'),
    ),
    ('T_alpha', 14): (
        ('0x1.d5511ab950e6dp-2', '0x1.d5511ab950e70p-2'),
    ),
    ('L_alpha', 14): (
        ('0x1.c600b37f6431ap-3', '0x1.c600b37f6432bp-3'),
    ),
    ('w_inequality', 14): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ed0p-2', '0x1.23cb661473ee4p-2'),
    ),
    ('eta_ge2', 14): (
        ('0x1.ffda654fa8bfdp-2', '0x1.ffda654fa8bfep-2'),
        ('0x1.adc1141892ba9p-1', '0x1.adc1141893c8ep-1'),
    ),
    ('psihat_nonneg', 14): (
        ('0x1.d5511ab950e6dp-2', '0x1.d5511ab950e70p-2'),
        ('0x1.c600b37f6431ap-3', '0x1.c600b37f6432bp-3'),
    ),
}

# (alpha, t.lo, t.hi, N) -> (head, tail) of lattice_energy
LATTICE = {
    (4, '0x1.be0058e6b437cp+1', '0x1.be0058e6b437cp+1', 2): (('0x1.c463de669b1bcp+1', '0x1.c463de669b1bfp+1'), ('0x1.e8bfacf859bb6p-11', '0x1.f23386abb0d10p-11')),
    (4, '0x1.9b0f8350791fdp+1', '0x1.9b0f86021e4e8p+1', 3): (('0x1.a34bdd0775c24p+1', '0x1.a34bdffdb607ap+1'), ('0x1.d8c045b01955dp-12', '0x1.dbf83db3a389dp-12')),
    (4, '0x1.ea070058fe334p+1', '0x1.ea070059004e1p+1', 17): (('0x1.eef1aa5604961p+1', '0x1.eef1aa5606cc0p+1'), ('0x1.29128a196b8cep-19', '0x1.291c1a512c2f7p-19')),
    (4, '0x1.c6deaf3cd38eep+1', '0x1.c6deaf3ce7184p+1', 64): (('0x1.cd0215cce6fb1p+1', '0x1.cd0215ccfbd48p+1'), ('0x1.db7bd2fc7ed0ap-25', '0x1.db7ccaf6b891fp-25')),
    (6, '0x1.3c82f6855bf84p+1', '0x1.3c82f6855c1b1p+1', 2): (('0x1.3f4fd89390d11p+1', '0x1.3f4fd89390f63p+1'), ('0x1.35cf832ba7cb4p-15', '0x1.3c042abacea79p-15')),
    (6, '0x1.84595958af75dp+1', '0x1.84595958af764p+1', 3): (('0x1.855c48bdd7ff1p+1', '0x1.855c48bdd7ffbp+1'), ('0x1.6907ab2a9e295p-19', '0x1.6b3ded9d161e9p-19')),
    (6, '0x1.433236d6cd19fp+0', '0x1.433236d6cd1d8p+0', 17): (('0x1.c5fa0750fdb44p+0', '0x1.c5fa0750fdc0cp+0'), ('0x1.4508a91c6cea2p-24', '0x1.450fbfcecc737p-24')),
    (6, '0x1.58d9e33ad2982p-1', '0x1.58d9e33ad4135p-1', 64): (('0x1.0fc51991976b7p+1', '0x1.0fc5199199920p+1'), ('0x1.632ab1378bc61p-29', '0x1.632b27a808b11p-29')),
    (8, '0x1.4adc378b5b751p+1', '0x1.4adc39b672d74p+1', 2): (('0x1.4b3182901c77bp+1', '0x1.4b3184c03b297p+1'), ('0x1.da0220676771dp-22', '0x1.e15ef30ec36c3p-22')),
    (8, '0x1.1a39d356d298fp+1', '0x1.1a39d356d29c1p+1', 3): (('0x1.1b3d193a0eef5p+1', '0x1.1b3d193a0ef2bp+1'), ('0x1.3c78043bd18e5p-23', '0x1.3dc5228b6abacp-23')),
    (8, '0x1.6d4b8bb429019p+1', '0x1.6d4b8bb42901fp+1', 17): (('0x1.6d7636f2a344ap+1', '0x1.6d7636f2a3452p+1'), ('0x1.9bf066de473c5p-42', '0x1.9bf4f0cc1e1a6p-42')),
    (8, '0x1.ada52e1e0d28ep+1', '0x1.ada52e1e0d582p+1', 64): (('0x1.adb2e2edc135cp+1', '0x1.adb2e2edc1653p+1'), ('0x1.d8850c0146a9bp-57', '0x1.d8855739e1978p-57')),
    (12, '0x1.9d30c6d86c13cp+1', '0x1.9d30c6d86c143p+1', 2): (('0x1.9d30f128bc3abp+1', '0x1.9d30f128bc3b4p+1'), ('0x1.5872bb7c8d0f7p-37', '0x1.5a9cdf3a77afcp-37')),
    (12, '0x1.38fa93f5c8e98p+1', '0x1.38fa93f5c8e98p+1', 3): (('0x1.38fe165852636p+1', '0x1.38fe165852638p+1'), ('0x1.e3e43a32ebad2p-38', '0x1.e480bcce6ea46p-38')),
    (12, '0x1.2f9434e41be1ap+1', '0x1.2f9434e428eb8p+1', 17): (('0x1.2f991d4f9906ap+1', '0x1.2f991d4fa6136p+1'), ('0x1.4ee43c570829ep-62', '0x1.4ee4def4eb53ap-62')),
    (12, '0x1.802a3f1bae17ap-1', '0x1.802a3f1bae17ap-1', 64): (('0x1.1bab8093017f0p+1', '0x1.1bab80930180ap+1'), ('0x1.f6c542dfeacebp-65', '0x1.f6c54f354a089p-65')),
    (30, '0x1.79a6d452f1fe9p+1', '0x1.79a6d452f1fe9p+1', 2): (('0x1.79a6d452f2053p+1', '0x1.79a6d452f2055p+1'), ('0x1.23027bf2da499p-92', '0x1.2303654b24333p-92')),
    (30, '0x1.38d81d01cb2c8p+0', '0x1.38d81d3647bacp+0', 3): (('0x1.3a5df62cc0c42p+0', '0x1.3a5df669241fap+0'), ('0x1.874908da738cdp-68', '0x1.874920f0ee81cp-68')),
    (30, '0x1.157ce58a51e88p+1', '0x1.157ce58ef9b5ap+1', 17): (('0x1.157ce58b17b3ap+1', '0x1.157ce58fbf80ep+1'), ('0x1.cf3550800be23p-157', '0x1.cf3551a3a74c2p-157')),
    (30, '0x1.226ad3d1c8275p+1', '0x1.226ad3d1c8275p+1', 64): (('0x1.226ad3d1fcf43p+1', '0x1.226ad3d1fcf45p+1'), ('0x1.70b759c5b04a8p-213', '0x1.70b759dfbdc17p-213')),
    (100, '0x1.7da932dcf8a80p+1', '0x1.7da932dcf8a80p+1', 2): (('0x1.7da932dcf8a80p+1', '0x1.7da932dcf8a82p+1'), ('0x1.616470cfc0107p-314', '0x1.616470cfc018ap-314')),
    (100, '0x1.6b4b628f94172p+1', '0x1.6b4b628f94172p+1', 3): (('0x1.6b4b628f94172p+1', '0x1.6b4b628f94174p+1'), ('0x1.00f75b7bd9b18p-348', '0x1.00f75b7bd9b7ep-348')),
    (100, '0x1.84efdb58badf9p+1', '0x1.84efdb58badf9p+1', 17): (('0x1.84efdb58badf9p+1', '0x1.84efdb58badfbp+1'), ('0x1.366f1e8107e10p-575', '0x1.366f1e8107ec6p-575')),
    (100, '0x1.248be9e0660f2p+1', '0x1.248be9e0660f2p+1', 64): (('0x1.248be9e0660f2p+1', '0x1.248be9e0660f4p+1'), ('0x1.0ac6d837d5955p-719', '0x1.0ac6d837d5a15p-719')),
    # t(2N + 1/2) <= 1.5, where the power-sum tail bound is the smaller one
    (4, '0x1.51eb851eb851fp-2', '0x1.51eb851eb851fp-2', 2): (('0x1.89791cc30fe1ap+0', '0x1.89791cc30fe1ep+0'), ('0x1.00154567a8edcp-1', '0x1.79a8a7d267814p-1')),
    (8, '0x1.3333333333333p-2', '0x1.3333333333333p-2', 2): (('0x1.7d73e0d225d04p+0', '0x1.7d73e0d225d08p+0'), ('0x1.10b82278e357fp-1', '0x1.25447b0bdb25dp-1')),
    (6, '0x1.78d4fdf3b645ap-7', '0x1.78d4fdf3b645ap-7', 64): (('0x1.73789cd207e62p+0', '0x1.73789cd207e84p+0'), ('0x1.2d85d3b645862p-1', '0x1.4b21719ff789ep-1')),
}

# alpha -> first_order_residual(ctx) (N = 128); (alpha, N) -> at that N
RESIDUAL = {
    4: ('-0x1.5aff741d37aacp-23', '0x1.53c3dd274deabp-21'),
    6: ('-0x1.c5441093ec910p-39', '0x1.397302127d922p-36'),
    8: ('-0x1.5f7a24716aeb5p-45', '0x1.243d1238b575bp-44'),
    10: ('-0x1.280009db4fd76p-45', '0x1.5e0013b69faecp-46'),
    12: ('-0x1.8680000003cb9p-42', '0x1.6640000003cb9p-42'),
    (4, 2): ('-0x1.074fe8f5d34c8p-5', '0x1.7605df45e5304p-4'),
}

# (alpha, N) -> SHA-256 of the hex endpoints of Fn, dFn and the three tails
COEFFS = {
    (4, 8): 'c154e7e9c0466b5ba83fc7df09c8fda0b7bc254a9fcc1d263d2a0c2a0789a80f',
    (4, 64): 'f93dc793b9980c9995ddf18a746909db28789e974900fa98a9775b8b1797311f',
    (4, 256): 'b3dc9fd6371662a6d68d0096639a3dfff523efd4ad3e796539ddd57f129cd819',
    (6, 8): '612e899465a1b518246aeaae3a037b1793b80f69923fb9a4947756b3283647c1',
    (6, 64): '7fe9e019fd8949cea69029a776258102ba9bb81c86ad0aa22481d9bfd4953774',
    (6, 256): 'b0006d6ac9ae2fed63d6d40cbdf45b6923ed195ef08e736b42984b8998e09461',
    (8, 8): 'd5631316f61a08f710b634e6697f49238bd4e0d352b685a57c86b92c38d5f0e8',
    (8, 64): '4f9231429ee84f0ccc6e615cf7ed6593e69d663ffc8d68a6ffdef3d5ffcec8f8',
    (8, 256): 'f2650e5bf0d263edba4e9b7a765015b706e09040b7e1820cbc2fc61a4804deec',
    (10, 8): '49e722459937e6cebf123546861d4575869fa4933b8ca1e49846841cf6c39141',
    (10, 64): '46e17d4922500bc535b54d743c302ef6072e42858dc7332f4da32a0ccc802bdf',
    (10, 256): '554abb0d228f72dbdfd336d60ff1d80dd9a17dfe6c6d19554dbc09170cbb9b4e',
    (12, 8): '4afebce3f32494ef22ac606ea577ff974e4affcbac5a46b9f634e4bf2d9fc346',
    (12, 64): '659a137032bc0ce654512213a3380ced1f4b3e71ebafb668183f85061c861480',
    (12, 256): 'c5ae01f6ab3f14a94b5b6ae0c10285e127df8efd8b42c81a689e453458650513',
    (14, 8): '09d539ac6640781bff93cb856c6ed72c4d18602a0afa7ff2d4d1f211f5b2812d',
    (14, 64): '1a3326469c9b507ed16f87566b84b9c5e2a1c7fde1f4dbfac29386d7ad412be2',
    (14, 256): 'fe3c6c439b0834520a031b9f6e64a4b0bee1bf2df7f436669e670c7b9f3d04d7',
}

# alpha -> decay_constant(build_coefficients(ctx, 256))
DECAY = {
    4: ('0x0.0p+0', '0x1.b16c270eefe6ep+2'),
    6: ('0x0.0p+0', '0x1.1c0bb4a23c619p+2'),
    8: ('0x0.0p+0', '0x1.fdb242b853e6ap+1'),
    10: ('0x0.0p+0', '0x1.e42e69e2d347ap+1'),
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
    for iv in (*coeffs.Fn, *coeffs.dFn, coeffs.tail_F, coeffs.tail_dF, coeffs.tail_n2F):
        h.update(f"{iv.lo.hex()} {iv.hi.hex()}\n".encode())
    return h.hexdigest()


def test_coefficient_table_digests(ctxs):
    got = {(a, N): _digest(auxfn.build_coefficients(ctxs[a], N)) for a, N in COEFFS}
    assert got == COEFFS


def test_decay_constant_bits(coeffs_by_alpha):
    assert {a: _hex(auxfn.decay_constant(coeffs_by_alpha[a])) for a in DECAY} == DECAY
