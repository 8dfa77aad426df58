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
status, box count or depth moved.
"""

import hashlib

import pytest

from repulse import auxfn, certify
from repulse.interval import Interval
from repulse.potential import first_order_residual, lattice_energy, solve_s_alpha

# (inequality_id, alpha) -> (lo, hi) of each value passed to a constant check, in order
CHECKS = {
    ('T_alpha', 4): (
        ('0x1.12aa04e671968p-2', '0x1.12af8f0bf4191p-2'),
    ),
    ('w_inequality', 4): (
        ('0x1.3333333332b42p+0', '0x1.3333333332b42p+0'),
        ('0x1.23cb661471cd4p-2', '0x1.23cb661471cd8p-2'),
    ),
    ('psi4_le_F4', 4): (
        ('0x1.ce40f8407be8fp-3', '0x1.0704238b877fcp-2'),
    ),
    ('psihat_nonneg', 4): (
        ('0x1.7a17a17a1689ap-3', '0x1.7a17a17a18b7dp-3'),
        ('0x1.12aa04e671968p-2', '0x1.12af8f0bf4191p-2'),
        ('0x1.3333333332b42p+0', '0x1.3333333332b42p+0'),
        ('0x1.23cb661471cd4p-2', '0x1.23cb661471cd8p-2'),
    ),
    ('T_alpha', 6): (
        ('0x1.87c895bd57964p-2', '0x1.87c8977412048p-2'),
    ),
    ('L_alpha', 6): (
        ('0x1.12d4f702b8083p-8', '0x1.1ad787d820e73p-8'),
    ),
    ('w_inequality', 6): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ed0p-2', '0x1.23cb661473ee4p-2'),
    ),
    ('eta_ge2', 6): (
        ('0x1.f4a7e2a43e4f5p-2', '0x1.f4a7e2a43e69bp-2'),
        ('0x1.fea9f56206bf2p-2', '0x1.11447bf9a6640p-1'),
    ),
    ('psihat_nonneg', 6): (
        ('0x1.87c895bd57964p-2', '0x1.87c8977412048p-2'),
        ('0x1.12d4f702b8083p-8', '0x1.1ad787d820e73p-8'),
    ),
    ('T_alpha', 8): (
        ('0x1.af4928c607c21p-2', '0x1.af4928c6d8aaep-2'),
    ),
    ('L_alpha', 8): (
        ('0x1.34c9ae54be13bp-3', '0x1.34c9ccb52541dp-3'),
    ),
    ('w_inequality', 8): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ed0p-2', '0x1.23cb661473ee4p-2'),
    ),
    ('eta_ge2', 8): (
        ('0x1.fca0ff7e04fb6p-2', '0x1.fca0ff7e05064p-2'),
        ('0x1.5bdc3a53d277ap-1', '0x1.5be0da7802b28p-1'),
    ),
    ('psihat_nonneg', 8): (
        ('0x1.af4928c607c21p-2', '0x1.af4928c6d8aaep-2'),
        ('0x1.34c9ae54be13bp-3', '0x1.34c9ccb52541dp-3'),
    ),
    ('T_alpha', 10): (
        ('0x1.c2fe2a36c8a19p-2', '0x1.c2fe2a36ca090p-2'),
    ),
    ('L_alpha', 10): (
        ('0x1.b7ebb2f4e4d21p-3', '0x1.b7ebb30779146p-3'),
    ),
    ('w_inequality', 10): (
        ('0x1.3333333333332p+0', '0x1.3333333333334p+0'),
        ('0x1.23cb661473ed0p-2', '0x1.23cb661473ee4p-2'),
    ),
    ('eta_ge2', 10): (
        ('0x1.fee1270ee118bp-2', '0x1.fee1270ee11d7p-2'),
        ('0x1.83fee0660ec0dp-1', '0x1.83fee2bb4f941p-1'),
    ),
    ('psihat_nonneg', 10): (
        ('0x1.c2fe2a36c8a19p-2', '0x1.c2fe2a36ca090p-2'),
        ('0x1.b7ebb2f4e4d21p-3', '0x1.b7ebb30779146p-3'),
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
        ('0x1.ff9a478456af6p-2', '0x1.ff9a478456b18p-2'),
        ('0x1.9ce2bad8f27a2p-1', '0x1.9ce2bada75e03p-1'),
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
        ('0x1.ffda654fa8bf5p-2', '0x1.ffda654fa8c05p-2'),
        ('0x1.adc114188a8f5p-1', '0x1.adc114189bf5ap-1'),
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
    4: ('-0x1.5b00015d39f9ap-23', '0x1.53c400634e7e7p-21'),
    6: ('-0x1.3c5e0849f964cp-38', '0x1.4f5702127e593p-36'),
    8: ('-0x1.f0bbd1238b579p-40', '0x1.ef53d1238b579p-40'),
    10: ('-0x1.33b000276d3f6p-39', '0x1.30b800276d3f6p-39'),
    12: ('-0x1.7118000000798p-39', '0x1.6d9c000000798p-39'),
    (4, 2): ('-0x1.074fe8f5f750cp-5', '0x1.7605df45f7286p-4'),
}

# (alpha, N) -> SHA-256 of the hex endpoints of Fn, dFn and the three tails
COEFFS = {
    (4, 8): '8e05c85c10df6feecb868d1a107acd59562cdf626cd5544ee430402875ebf7ef',
    (4, 64): '2be2e29524cfd7a7adfdd5ec8de2b4dd512f4fb7360e2847941d61bfc53a42fd',
    (4, 256): '0396ecdf9c6ddaf30725ff2e4824beb60e536475a7eb1c986d21d80386a35775',
    (6, 8): 'ecf62ad46336f0d73fdd45df19f370d387c7afc91e51718c733d7e45a5800fe9',
    (6, 64): '61c60005898fc2a5cdcaafeb7715c1c4b725d8e11b1c24e24fd747fa78776243',
    (6, 256): '6f71721dceb160601fd7de15b01191b6fad369815d7b042926db11f4ac3af61a',
    (8, 8): '93010e3ddbf8e4be38857df50bb29e8a2426951690321b53bfd686207ca7f686',
    (8, 64): '47ba7387a4a2ee2f9ff438e8e21ecf1f5a9b10810fc765a43d464e4c2b1bbc37',
    (8, 256): 'dd36dd212846ff3cc0fc9281c0c70ebbed238d798ff3d8223a67fed09192ec55',
    (10, 8): '5b80e285b1cab4fd0d220795ef6fadd03ee2105f668f9a2db67a63ef74c777f3',
    (10, 64): '0153f76158dcb8dc20b78c41c29ff6330fc41554c0adcbfdefa18c5be9de66e5',
    (10, 256): 'bb6d8a5b22ba90c72f39c51167745e621484d4334f45080ce5efac8e2e2b7b2b',
    (12, 8): '7c6e512587703a58db643ce33c755cb1a4ef4034c3afab660b57f62014ae0a40',
    (12, 64): 'bbd65e04c79a93d6021a5a60e2c1909aef1feaf55e60cda81ded7dcb140aa773',
    (12, 256): '41e268b484829ea0c8c4bf74477e33723aa3321fb9f6590bc290ff12f11ff45d',
    (14, 8): '141d02175580af477c06a92086a2a659fc4d1d4c56376e989098d7a17e5db141',
    (14, 64): '5507c20537b41dc10a87a64b9cd16e3620a6cbed56be91474c1e684f951a44af',
    (14, 256): '95c61ec284f60bc3ebefde4833e53c647cfddc6f2af554dbfeb79875e5518c66',
}

# alpha -> decay_constant(build_coefficients(ctx, 256))
DECAY = {
    4: ('0x0.0p+0', '0x1.b16c270ef0d7fp+2'),
    6: ('0x0.0p+0', '0x1.1c0bb4a23d447p+2'),
    8: ('0x0.0p+0', '0x1.fdb242b8562bap+1'),
    10: ('0x0.0p+0', '0x1.e42e69e2d60b5p+1'),
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
