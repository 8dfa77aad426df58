"""Bit pins of every series over n that the lane kernel sums.

Recorded on the scalar per-n loops the lane sums replaced; each value must
keep its bits.  Pinned: both endpoints of every constant-check value of
every route at alpha 4..14 (tests/test_parity.py pins only the lower
bounds that end up in certificates), the head and tail of lattice_energy
on a seeded grid of (alpha, t, N), first_order_residual, decay_constant
and a SHA-256 of the build_coefficients tables.
"""

import hashlib

import pytest

from repulse import auxfn, certify
from repulse.interval import Interval
from repulse.potential import first_order_residual, lattice_energy, solve_s_alpha

# (inequality_id, alpha) -> (lo, hi) of each value passed to a constant check, in order
CHECKS = {
    ('T_alpha', 4): (
        ('0x1.12aa6c1673dfcp-2', '0x1.12aa81b57ec00p-2'),
    ),
    ('w_inequality', 4): (
        ('0x1.3333333332c52p+0', '0x1.3333333332c52p+0'),
        ('0x1.23cb661472160p-2', '0x1.23cb661472164p-2'),
    ),
    ('psi4_le_F4', 4): (
        ('0x1.8c7231c57da85p-3', '0x1.36324f99c243ep-2'),
    ),
    ('psihat_nonneg', 4): (
        ('0x1.7a17a17a15b15p-3', '0x1.7a17a17a18aa9p-3'),
        ('0x1.12aa6c1673dfcp-2', '0x1.12aa81b57ec00p-2'),
        ('0x1.3333333332c52p+0', '0x1.3333333332c52p+0'),
        ('0x1.23cb661472160p-2', '0x1.23cb661472164p-2'),
    ),
    ('T_alpha', 6): (
        ('0x1.87c895ecd2c27p-2', '0x1.87c895ed3f4efp-2'),
    ),
    ('L_alpha', 6): (
        ('0x1.1307ad8160c70p-8', '0x1.13284c736dde2p-8'),
    ),
    ('w_inequality', 6): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ed0p-2', '0x1.23cb661473ee4p-2'),
    ),
    ('eta0', 6): (
        ('0x1.4f4f5d004af34p-1', '0x1.4f4f5d00609e2p-1'),
        ('0x1.1d7a699899e9ap-1', '0x1.1d7a69989abdcp-1'),
    ),
    ('eta_ge2', 6): (
        ('0x1.f4a7e2a43e2dcp-2', '0x1.f4a7e2a43e5dap-2'),
        ('0x1.0b9834ad74b0dp-1', '0x1.10168cf714cbfp-1'),
    ),
    ('psihat_nonneg', 6): (
        ('0x1.87c895ecd2c27p-2', '0x1.87c895ed3f4efp-2'),
        ('0x1.1307ad8160c70p-8', '0x1.13284c736dde2p-8'),
    ),
    ('T_alpha', 8): (
        ('0x1.af4928c624531p-2', '0x1.af4928c6260d0p-2'),
    ),
    ('L_alpha', 8): (
        ('0x1.34c9af3f85673p-3', '0x1.34c9af479485bp-3'),
    ),
    ('w_inequality', 8): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ed0p-2', '0x1.23cb661473ee4p-2'),
    ),
    ('eta0', 8): (
        ('0x1.468e305bbcddfp+0', '0x1.468e305bc892cp+0'),
        ('0x1.696a743fccb69p-1', '0x1.696a743fcd35ap-1'),
    ),
    ('eta_ge2', 8): (
        ('0x1.fca0ff7e04ff1p-2', '0x1.fca0ff7e0512dp-2'),
        ('0x1.5bdfceea09dcap-1', '0x1.5bdfe1b16259bp-1'),
    ),
    ('psihat_nonneg', 8): (
        ('0x1.af4928c624531p-2', '0x1.af4928c6260d0p-2'),
        ('0x1.34c9af3f85673p-3', '0x1.34c9af479485bp-3'),
    ),
    ('T_alpha', 10): (
        ('0x1.c2fe2a36c8cf7p-2', '0x1.c2fe2a36ca83ap-2'),
    ),
    ('L_alpha', 10): (
        ('0x1.b7ebb2f570cd0p-3', '0x1.b7ebb2f59a508p-3'),
    ),
    ('w_inequality', 10): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ed0p-2', '0x1.23cb661473ee4p-2'),
    ),
    ('eta0', 10): (
        ('0x1.91c5e44a5f1fep+0', '0x1.91c5e44a6c230p+0'),
        ('0x1.91ce1dcaf13c8p-1', '0x1.91ce1dcaf176fp-1'),
    ),
    ('eta_ge2', 10): (
        ('0x1.fee1270ee1194p-2', '0x1.fee1270ee121dp-2'),
        ('0x1.83fee209a81e8p-1', '0x1.83fee20a59c33p-1'),
    ),
    ('psihat_nonneg', 10): (
        ('0x1.c2fe2a36c8cf7p-2', '0x1.c2fe2a36ca83ap-2'),
        ('0x1.b7ebb2f570cd0p-3', '0x1.b7ebb2f59a508p-3'),
    ),
    ('T_alpha', 12): (
        ('0x1.ccba9d07d2932p-2', '0x1.ccba9d07d2935p-2'),
    ),
    ('L_alpha', 12): (
        ('0x1.7a6848b9981c4p-3', '0x1.7a6848b9981e5p-3'),
    ),
    ('w_inequality', 12): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ed0p-2', '0x1.23cb661473ee4p-2'),
    ),
    ('eta0', 12): (
        ('0x1.73c28fa036da1p+0', '0x1.73c28fa036db3p+0'),
    ),
    ('eta_ge2', 12): (
        ('0x1.ff9a478456ad1p-2', '0x1.ff9a478456b0ep-2'),
        ('0x1.9ce2bad9e26f0p-1', '0x1.9ce2bad9fc9ebp-1'),
    ),
    ('psihat_nonneg', 12): (
        ('0x1.ccba9d07d2932p-2', '0x1.ccba9d07d2935p-2'),
        ('0x1.7a6848b9981c4p-3', '0x1.7a6848b9981e5p-3'),
    ),
    ('T_alpha', 14): (
        ('0x1.d5511ab950e6dp-2', '0x1.d5511ab950e70p-2'),
    ),
    ('L_alpha', 14): (
        ('0x1.c600b37f64314p-3', '0x1.c600b37f64333p-3'),
    ),
    ('w_inequality', 14): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ed0p-2', '0x1.23cb661473ee4p-2'),
    ),
    ('eta0', 14): (
        ('0x1.7f3190dbed7e4p+0', '0x1.7f3190dbed7f6p+0'),
    ),
    ('eta_ge2', 14): (
        ('0x1.ffda654fa8bfcp-2', '0x1.ffda654fa8c17p-2'),
        ('0x1.adc114187c41fp-1', '0x1.adc114189a133p-1'),
    ),
    ('psihat_nonneg', 14): (
        ('0x1.d5511ab950e6dp-2', '0x1.d5511ab950e70p-2'),
        ('0x1.c600b37f64314p-3', '0x1.c600b37f64333p-3'),
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
    4: ('-0x1.5b001f4539a12p-23', '0x1.53c415d54e685p-21'),
    6: ('-0x1.ede8084a01ef2p-38', '0x1.4ac50212807bdp-36'),
    8: ('-0x1.811bd1238b577p-40', '0x1.617cf448e2d5ep-38'),
    10: ('-0x1.388000276d3f6p-39', '0x1.8f220013b69fbp-38'),
    12: ('-0x1.102a0000001e6p-37', '0x1.e870000000f2fp-40'),
    (4, 2): ('-0x1.074fe8f5fead5p-5', '0x1.7605df460176bp-4'),
}

# (alpha, N) -> SHA-256 of the hex endpoints of Fn, dFn and the three tails
COEFFS = {
    (4, 8): '65b8d8b830d3cea0e8d9484186b0e462c6d4f8efcf9f28f4e5937d939e30cf25',
    (4, 64): '9d212adde358ffec37c667ede7e70afdd1c36f4073cdff5df7c857d68a5f4e35',
    (4, 256): '62edbdfde1b12f4d2d994d6ac35daba204d86131e7742c99c0186004b7716523',
    (6, 8): 'a3f9ee4a52a5762acac9689a11e1845cd801f2f38fb4384b21f3a0a534d0002e',
    (6, 64): '9aad3cb6643e1f5b3b25cf2c69578c2d8a9600d4878eae10e9a6d68b118b3a93',
    (6, 256): '77d33d8b7605a5f83bade284625c42c2bf61cc43101017d5e90a245a9a25798a',
    (8, 8): '17457d14e734c0836a1868b627dd77fffa56451ea4aa83bd48cb9b358935263d',
    (8, 64): '00ebf13c7a7db4c9cb40f85ca4b24804a5cd4a8452c8ac9c658affd06eeb784b',
    (8, 256): '8e9ceb7244b699e36181e6d7b100d1512d2c4d9183112d30d0e5c626015fbab0',
    (10, 8): '3082f8ab226b45ed02a84fa702f00bf8dc2cd6b591c02ee3fc754665dbe82b07',
    (10, 64): '39503059eaf58a131e127bacc1d47a290bd844d62e65e17f6e1ad711fcf11228',
    (10, 256): '198440bddfce74e2f08647f879381354da2c9f205a6102e7c32847474a67fa7c',
    (12, 8): '553213a49a64615216fec9a8dbe4cf6f34a9d2379083c0d13b20c1e573327bb3',
    (12, 64): 'fa5d6d6df7924ec220fa8e08cb2a6b52504251bd6e3625e83d86f7f2521bf42c',
    (12, 256): '0af564348c9932990a2f9dbb09d59846dd06f1918f0a8a9135b66b288004ab73',
    (14, 8): '76898802744e24687e04464cf00e810fe529c5acd7c613a78ee35ff65693fba0',
    (14, 64): '4d7ace7db5d77bab118540546cd89876300a4c0658147a7f3d080f73129f4b09',
    (14, 256): '53c737793d902f0900d395acf6e0b4ec8752e2e142fb896df14be0c1879e9103',
}

# alpha -> decay_constant(build_coefficients(ctx, 256))
DECAY = {
    4: ('0x0.0p+0', '0x1.b16c270ef0cf3p+2'),
    6: ('0x0.0p+0', '0x1.1c0bb4a23f6b1p+2'),
    8: ('0x0.0p+0', '0x1.fdb242b855119p+1'),
    10: ('0x0.0p+0', '0x1.e42e69e2d5b75p+1'),
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
