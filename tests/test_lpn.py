import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretaplab import lpn
from wiretaplab.coset import WiretapCodeParams, code_to_text, decode_ml, encode, random_coset_code
from wiretaplab.gf2 import BitMatrix, BitVector, invert, mat_mul, mat_vec_mul, random_full_rank
from wiretaplab.lpn import (
    LpnCiphertext,
    LpnKey,
    LpnParams,
    ciphertext_from_text,
    ciphertext_to_text,
    correction_radius,
    decrypt,
    encrypt,
    key_from_text,
    key_to_text,
    keygen,
    registered_code,
    toy_params,
)
from wiretaplab.prng import prng_stream

SEED = b"lpn-test-seed-001"


def _rng(label):
    return prng_stream(SEED, label)


class _ZeroRng:
    """Stub stream: every draw is zero (pins r, u, v and the coset choice)."""

    def next_bits(self, count):
        return 0

    def bernoulli(self, p):
        return 0

    def bernoulli_word(self, n, p):
        return 0


def _replay_draws(params, seed_label, skip=0):
    """Re-derive (r, u, v) for one encrypt call from the same stream, after
    the `skip` bits drawn before it (a message drawn from the stream)."""
    rng = _rng(seed_label)
    rng.next_bits(skip)
    r = BitVector(params.m - params.l, rng.next_bits(params.m - params.l))
    u = BitVector(params.k, rng.next_bits(params.k))
    v = 0
    for i in range(params.n):
        v |= rng.bernoulli(params.p) << i
    return r, u, BitVector(params.n, v), rng


def _mask(key, u):
    return mat_vec_mul(key.s_matrix.transpose(), u)


def _mask_bits(key, u):
    return _mask(key, u).bits


# --- params and registry -------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        LpnParams(l=0, m=8, k=16, n=28, p=0.05)
    with pytest.raises(ValueError):
        LpnParams(l=4, m=3, k=16, n=28, p=0.05)
    with pytest.raises(ValueError):
        LpnParams(l=4, m=8, k=16, n=28, p=0.5)
    with pytest.raises(ValueError, match="k must be >= 1"):
        LpnParams(l=4, m=8, k=0, n=28, p=0.05)


def test_registered_code_shape():
    code = registered_code(28, 8)
    assert (code.n, code.k_msg, code.k_coarse) == (28, 8, 8)
    assert correction_radius(toy_params()) == 1


def test_registered_code_rejects_unknown():
    with pytest.raises(ValueError):
        registered_code(29, 8)
    with pytest.raises(ValueError):
        keygen(_rng("bad"), LpnParams(l=4, m=8, k=16, n=29, p=0.05))


def test_registered_family_decrypts_every_m_it_accepts():
    # From m = 12 decode_ml has neither a leader table nor a fine-code walk in
    # budget, so every decrypt would raise: keygen refuses those m instead.
    accepted = []
    for m in range(2, 15):
        params = LpnParams(l=m, m=m, k=8, n=7 * m // 2, p=0.005)
        try:
            key = keygen(_rng(f"family-{m}"), params)
        except ValueError as exc:
            assert f"m={m}" in str(exc)
            continue
        accepted.append(m)
        rng = _rng(f"family-{m}-msg")
        a = BitVector(m, rng.next_bits(m))
        assert decrypt(key, params, encrypt(key, params, a, rng)) == a
    assert accepted == [2, 4, 6, 8, 10]


# --- keygen ----------------------------------------------------------------------


def test_keygen_deterministic():
    params = toy_params()
    a = keygen(_rng("kg"), params)
    b = keygen(_rng("kg"), params)
    assert key_to_text(a, params) == key_to_text(b, params)


def test_keygen_different_seeds_differ():
    params = toy_params()
    keys = {key_to_text(keygen(_rng(f"kg-{i}"), params), params) for i in range(100)}
    assert len(keys) == 100


def test_keygen_mixing_inverse():
    params = toy_params()
    key = keygen(_rng("kg-inv"), params)
    assert mat_mul(key.mixing, key.mixing_inv) == BitMatrix.identity(params.m)


# --- encrypt ----------------------------------------------------------------------


def test_encrypt_with_pinned_randomness_reduces_to_encode():
    params = toy_params()
    key = keygen(_rng("pin"), params)
    a = BitVector.from_bits([1, 0, 1, 1])
    ct = encrypt(key, params, a, _ZeroRng())
    padded = a.concat(BitVector.zeros(params.m - params.l))
    expected = encode(key.code, mat_vec_mul(key.mixing, padded), _ZeroRng())
    assert ct.u.bits == 0
    assert ct.z == expected


def test_encrypt_zero_key_has_no_mask():
    params = toy_params()
    real = keygen(_rng("zero"), params)
    zero_key = LpnKey(
        BitMatrix.zeros(params.k, params.n), real.mixing, real.mixing_inv, real.code
    )
    a = BitVector.from_bits([0, 1, 1, 0])
    ct = encrypt(zero_key, params, a, _rng("zero-msg"))
    r, u, v, tail = _replay_draws(params, "zero-msg")
    codeword = encode(zero_key.code, mat_vec_mul(real.mixing, a.concat(r)), tail)
    assert ct.u == u
    assert ct.z.bits == codeword.bits ^ v.bits


def test_encrypt_mask_linearity():
    # Same stream with and without S: the ciphertexts differ by exactly u @ S.
    params = toy_params()
    key = keygen(_rng("mask"), params)
    zero_key = LpnKey(
        BitMatrix.zeros(params.k, params.n), key.mixing, key.mixing_inv, key.code
    )
    a = BitVector.from_bits([1, 1, 0, 0])
    ct_real = encrypt(key, params, a, _rng("mask-msg"))
    ct_zero = encrypt(zero_key, params, a, _rng("mask-msg"))
    assert ct_real.u == ct_zero.u
    assert ct_real.z.bits ^ ct_zero.z.bits == _mask_bits(key, ct_real.u)


def test_encrypt_rejects_wrong_length():
    params = toy_params()
    key = keygen(_rng("len"), params)
    with pytest.raises(ValueError):
        encrypt(key, params, BitVector.from_bits([1, 0]), _rng("len-msg"))


def test_ciphertext_lengths_invariant():
    params = toy_params()
    key = keygen(_rng("lens"), params)
    rng = _rng("lens-msg")
    for m in range(16):
        ct = encrypt(key, params, BitVector(params.l, m), rng)
        assert ct.z.len == params.n
        assert ct.u.len == params.k


def test_known_plaintext_randomization():
    # Fixed plaintext, fresh randomness: ciphertexts should almost never repeat.
    params = toy_params()
    key = keygen(_rng("kpa"), params)
    rng = _rng("kpa-msgs")
    a = BitVector.from_bits([1, 0, 1, 0])
    zs = [encrypt(key, params, a, rng).z.bits for _ in range(100)]
    assert len(set(zs)) >= 95


# --- decrypt ----------------------------------------------------------------------


def test_decrypt_exhaustive_within_radius():
    # Assemble ciphertexts with every noise pattern of weight <= radius.
    params = toy_params()
    key = keygen(_rng("radius"), params)
    rng = _rng("radius-msg")
    radius = correction_radius(params)
    assert radius == 1
    patterns = [0] + [1 << i for i in range(params.n)]
    for a_int in (0b0000, 0b1011, 0b1111):
        a = BitVector(params.l, a_int)
        r = BitVector(params.m - params.l, rng.next_bits(params.m - params.l))
        u = BitVector(params.k, rng.next_bits(params.k))
        codeword = encode(key.code, mat_vec_mul(key.mixing, a.concat(r)), rng)
        for v in patterns:
            z = BitVector(params.n, codeword.bits ^ _mask_bits(key, u) ^ v)
            assert decrypt(key, params, LpnCiphertext(z, u)) == a


def test_decrypt_roundtrip_statistics():
    # p chosen so that P(weight(v) <= radius) >= 0.99; conditional success
    # must be perfect and overall success at least 98%.
    params = toy_params(p=0.005)
    p_correctable = (1 - params.p) ** params.n + params.n * params.p * (
        1 - params.p
    ) ** (params.n - 1)
    assert p_correctable >= 0.99
    key = keygen(_rng("stats"), params)
    successes = 0
    conditional_failures = 0
    trials = 1000
    for i in range(trials):
        label = f"stats-{i}"
        msg_rng = _rng(label)
        a = BitVector(params.l, msg_rng.next_bits(params.l))
        ct = encrypt(key, params, a, msg_rng)
        _, _, v, _ = _replay_draws(params, label, skip=params.l)
        ok = decrypt(key, params, ct) == a
        successes += ok
        if v.bits.bit_count() <= 1 and not ok:
            conditional_failures += 1
    assert conditional_failures == 0
    assert successes / trials >= 0.98


def test_ciphertext_from_text_rejects_short_z():
    params = toy_params()
    key = keygen(_rng("short-z"), params)
    ct = encrypt(key, params, BitVector.from_bits([1, 0, 1, 0]), _rng("short-z-msg"))
    header, z_line, u_line = ciphertext_to_text(ct).splitlines()
    with pytest.raises(ValueError, match=z_line[:-2]):
        ciphertext_from_text(f"{header}\n{z_line[:-2]}\n{u_line}\n")


def test_encrypt_rejects_mask_shape_mismatch():
    params = toy_params()
    real = keygen(_rng("mask-shape"), params)
    short_s = LpnKey(
        BitMatrix.zeros(params.k - 1, params.n), real.mixing, real.mixing_inv, real.code
    )
    with pytest.raises(ValueError, match="rows of S"):
        encrypt(short_s, params, BitVector.zeros(params.l), _rng("mask-shape-msg"))


def test_decrypt_rejects_wrong_lengths():
    params = toy_params()
    key = keygen(_rng("bad-ct"), params)
    with pytest.raises(ValueError):
        decrypt(key, params, LpnCiphertext(BitVector.zeros(5), BitVector.zeros(params.k)))


def test_tampered_public_randomness_changes_output():
    # A flipped u bit shifts the mask by an S row, so the decode lands on an
    # essentially random message block: >= 95% avalanche there.  The printed
    # plaintext is only l = 4 bits, so chance collisions cap that rate near
    # 15/16; assert 90% at the truncated level.
    params = toy_params(p=0.005)
    key = keygen(_rng("tamper"), params)
    rng = _rng("tamper-msg")
    plain_changed = 0
    block_changed = 0
    total = 0
    for trial in range(10):
        a = BitVector(params.l, rng.next_bits(params.l))
        ct = encrypt(key, params, a, rng)
        baseline = decrypt(key, params, ct)
        base_block = decode_ml(key.code, ct.z ^ _mask(key, ct.u), params.p)
        for bit in range(params.k):
            u_bad = BitVector(params.k, ct.u.bits ^ (1 << bit))
            tampered = LpnCiphertext(ct.z, u_bad)
            total += 1
            plain_changed += decrypt(key, params, tampered) != baseline
            block = decode_ml(key.code, ct.z ^ _mask(key, u_bad), params.p)
            block_changed += block != base_block
    assert block_changed / total >= 0.95
    assert plain_changed / total >= 0.90


# --- file formats -----------------------------------------------------------------


def test_key_file_roundtrip():
    params = toy_params()
    key = keygen(_rng("file"), params)
    text = key_to_text(key, params)
    back_key, back_params = key_from_text(text)
    assert back_params == params
    assert back_key == key
    assert text.splitlines()[0] == "lpn-key v1: 4,8,16,28,0.05"


def test_key_file_rejects_corruption():
    params = toy_params()
    key = keygen(_rng("corrupt"), params)
    lines = key_to_text(key, params).splitlines()
    with pytest.raises(ValueError):
        key_from_text("\n".join(["bogus header"] + lines[1:]))
    with pytest.raises(ValueError):
        key_from_text("\n".join(lines[:-1]))
    swapped = lines[:]
    swapped[0] = "lpn-key v1: 4,8,16,35,0.05"
    with pytest.raises(ValueError):
        key_from_text("\n".join(swapped))
    swapped[0] = "lpn-key v1: 4,8,16,28"
    with pytest.raises(ValueError, match="expected l,m,k,n,p, got 4 values"):
        key_from_text("\n".join(swapped))
    # The code lines must be the registered code's.
    assert lines[3] == "28,16,8"
    bad_code = lines[:3] + ["99,87,79"] + lines[4:]
    with pytest.raises(ValueError, match="not the registered code for n=28, m=8"):
        key_from_text("\n".join(bad_code))
    bad_s = lines[:1] + [BitMatrix.zeros(15, 28).to_hex()] + lines[2:]
    with pytest.raises(ValueError, match="S shape inconsistent with params"):
        key_from_text("\n".join(bad_s))
    bad_mixing = lines[:2] + [BitMatrix.identity(7).to_hex()] + lines[3:]
    with pytest.raises(ValueError, match="M shape inconsistent with params"):
        key_from_text("\n".join(bad_mixing))


def _key_text_with_code(label, params, code):
    """A key file for params whose code lines are code's, as a hand-made or
    older key file could hold them."""
    rng = _rng(label)
    s_matrix = BitMatrix.from_row_words([rng.next_bits(params.n) for _ in range(params.k)], params.n)
    mixing = random_full_rank(rng, params.m, params.m)
    return key_to_text(LpnKey(s_matrix, mixing, invert(mixing), code), params)


def test_key_file_past_the_family_budget_is_refused_at_load():
    # keygen refuses m = 12; a key file for it would load and fail on every
    # decrypt, since neither a leader table nor a fine-code walk is in budget.
    params = LpnParams(l=4, m=12, k=16, n=42, p=0.05)
    text = _key_text_with_code("m12", params, lpn._hamming_block_code(6))
    with pytest.raises(ValueError, match="m=12 is past the registered family's decoding budget"):
        key_from_text(text)


def test_key_file_with_a_foreign_code_of_the_same_shape_is_refused():
    params = toy_params()
    code = random_coset_code(_rng("foreign-code"), WiretapCodeParams(28, 16, 8, 8, 0.01))
    assert code != registered_code(28, 8)
    text = _key_text_with_code("foreign", params, code)
    assert text.splitlines()[3:] == code_to_text(code).splitlines()
    with pytest.raises(ValueError, match="code lines are not the registered code for n=28, m=8"):
        key_from_text(text)


def test_ciphertext_file_roundtrip():
    params = toy_params()
    key = keygen(_rng("ctfile"), params)
    ct = encrypt(key, params, BitVector.from_bits([1, 1, 1, 0]), _rng("ctfile-msg"))
    text = ciphertext_to_text(ct)
    assert ciphertext_from_text(text) == ct
    assert text.splitlines()[0] == "lpn-ct v1: 28,16"


def test_decrypt_of_loaded_key_builds_no_fine_code():
    params = toy_params(p=0.005)
    key, params = key_from_text(key_to_text(keygen(_rng("lazy"), params), params))
    plain = BitVector.from_bits([1, 0, 1, 1])
    assert decrypt(key, params, encrypt(key, params, plain, _rng("lazy-msg"))) == plain
    # The coset-leader table decodes; the 2^16-word fine code stays unbuilt.
    assert "_leader_table" in key.code.__dict__
    assert "_fine_words" not in key.code.__dict__


@st.composite
def _keyed_params(draw):
    """Any params the registered Hamming-block family admits, and a key."""
    blocks = draw(st.integers(1, 4))
    m = 2 * blocks
    params = LpnParams(
        l=draw(st.integers(1, m)),
        m=m,
        k=draw(st.integers(1, 40)),
        n=7 * blocks,
        p=draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
    )
    return keygen(_rng(f"prop-key-{draw(st.integers(0, 2**32))}"), params), params


@settings(max_examples=60, deadline=None, derandomize=True)
@given(keyed=_keyed_params())
def test_key_text_roundtrip_property(keyed):
    key, params = keyed
    assert key_from_text(key_to_text(key, params)) == (key, params)
    assert LpnParams.from_text(params.to_text()) == params


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 80), k=st.integers(1, 80))
def test_ciphertext_text_roundtrip_property(data, n, k):
    ct = LpnCiphertext(
        BitVector(n, data.draw(st.integers(0, (1 << n) - 1))),
        BitVector(k, data.draw(st.integers(0, (1 << k) - 1))),
    )
    assert ciphertext_from_text(ciphertext_to_text(ct)) == ct


def test_ciphertext_file_rejects_corruption():
    with pytest.raises(ValueError):
        ciphertext_from_text("lpn-ct v1: 28,16\n28:00\n")
    with pytest.raises(ValueError):
        ciphertext_from_text("nonsense\n28:00000000\n16:0000\n")
    with pytest.raises(ValueError, match="bad header '28'"):
        ciphertext_from_text("lpn-ct v1: 28\n28:00000000\n16:0000\n")
    with pytest.raises(ValueError, match="ciphertext lengths inconsistent with header"):
        ciphertext_from_text("lpn-ct v1: 28,16\n16:0000\n16:0000\n")
