"""RSA, certificates and HMAC session signing."""

from __future__ import annotations

import math

import pytest

from repro.flare import (
    CertificateAuthority,
    generate_keypair,
    hmac_sign,
    hmac_verify,
    sign,
    verify,
)
from repro.flare.security import (
    _is_probable_prime,
    _odd_primes_below,
    _random_prime,
)

import numpy as np


def is_prime_by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestPrimes:
    def test_known_primes(self):
        rng = np.random.default_rng(0)
        for p in (2, 3, 5, 101, 7919, (1 << 61) - 1):
            assert _is_probable_prime(p, rng)

    def test_known_composites(self):
        rng = np.random.default_rng(0)
        for c in (1, 4, 100, 7917, 561, 41041):  # incl. Carmichael numbers
            assert not _is_probable_prime(c, rng)

    def test_random_prime_bit_length(self):
        rng = np.random.default_rng(1)
        p = _random_prime(128, rng)
        assert p.bit_length() == 128 and p % 2 == 1

    def test_sieve_primes(self):
        assert _odd_primes_below(1 << 13) == [
            n for n in range(3, 1 << 13, 2) if is_prime_by_trial_division(n)]

    @pytest.mark.parametrize("bits", [8, 12, 13, 14, 16, 24, 32])
    def test_random_prime_is_prime_with_exact_size(self, bits):
        # up to 13 bits every prime is itself a sieve prime, so the sieve
        # must let a candidate through when it is one of its own primes
        for seed in range(20):
            p = _random_prime(bits, np.random.default_rng(seed))
            assert p.bit_length() == bits
            assert is_prime_by_trial_division(p)


class TestRSA:
    def test_sign_verify(self):
        kp = generate_keypair(bits=512, seed=1)
        sig = sign(b"payload", kp)
        assert verify(b"payload", sig, kp.public)

    def test_tampered_message_fails(self):
        kp = generate_keypair(bits=512, seed=2)
        sig = sign(b"payload", kp)
        assert not verify(b"Payload", sig, kp.public)

    def test_wrong_key_fails(self):
        kp1 = generate_keypair(bits=512, seed=3)
        kp2 = generate_keypair(bits=512, seed=4)
        sig = sign(b"m", kp1)
        assert not verify(b"m", sig, kp2.public)

    def test_keypair_deterministic_by_seed(self):
        for seed in (0, 5, 1001):
            assert generate_keypair(bits=512, seed=seed) == \
                generate_keypair(bits=512, seed=seed)
        assert generate_keypair(bits=512, seed=5) != generate_keypair(bits=512, seed=6)

    def test_modulus_size(self):
        kp = generate_keypair(bits=512, seed=6)
        assert kp.n.bit_length() >= 511

    def test_too_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(bits=64)


class TestCertificates:
    def test_issue_and_verify(self):
        ca = CertificateAuthority(bits=512, seed=7)
        kp = generate_keypair(bits=512, seed=8)
        cert = ca.issue("site-1", "clinic-1", "client", kp.public)
        assert ca.verify_certificate(cert)

    def test_forged_subject_fails(self):
        ca = CertificateAuthority(bits=512, seed=9)
        kp = generate_keypair(bits=512, seed=10)
        cert = ca.issue("site-1", "clinic-1", "client", kp.public)
        from dataclasses import replace

        forged = replace(cert, subject="site-99")
        assert not ca.verify_certificate(forged)

    def test_certificate_from_other_ca_fails(self):
        ca1 = CertificateAuthority(bits=512, seed=11)
        ca2 = CertificateAuthority(bits=512, seed=12)
        kp = generate_keypair(bits=512, seed=13)
        cert = ca2.issue("site-1", "c", "client", kp.public)
        assert not ca1.verify_certificate(cert)


class TestHMAC:
    def test_sign_verify(self):
        assert hmac_verify(b"data", hmac_sign(b"data", b"key"), b"key")

    def test_tamper_fails(self):
        assert not hmac_verify(b"datA", hmac_sign(b"data", b"key"), b"key")

    def test_wrong_key_fails(self):
        assert not hmac_verify(b"data", hmac_sign(b"data", b"key"), b"other")
