"""Identity suite tests: everything passes, and a corrupted algebra is caught."""

import ast
import inspect
import itertools
import math
import re
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from cliffsphere import cli, frames, identities, multivector
from cliffsphere.frames import ORIENTATIONS
from cliffsphere.identities import (
    CheckResult,
    _frame_coeffs,
    _frame_table,
    _naive_table,
    check_abstract_embedded_isomorphism,
    check_associativity,
    check_combined_identity,
    check_duality,
    check_frame_anticommutation,
    check_frame_squares,
    check_frame_subalgebra,
    check_generator_anticommutation,
    check_ordered_product,
    check_product_against_naive_oracle,
    check_rotor_rotation,
    check_rotor_unit,
    check_score_expansion_embedded,
    check_score_square,
    check_vector_basis_flip,
    check_vector_product_decomposition,
    run_identity_checks,
)
from cliffsphere.multivector import (
    Multivector,
    contract,
    geometric_product,
)

from .oracles import _blade_table, flip_kernel_sign, reversion


def test_full_suite_all_pass():
    results = run_identity_checks(n_pairs=200)
    # tier-1's one pin of the suite's shape; perfbench counts the PASS lines
    # against its own IDENTITY_CHECKS = 31, which changes only with perfbench
    assert len(results) == 31
    for r in results:
        assert r.passed, f"{r.name}: residual {r.residual}"


#: The checks of bilinear identities, which run on the basis pairs alone.
BASIS_CHECKS = (check_frame_subalgebra, check_score_expansion_embedded, check_combined_identity, check_duality,
                check_abstract_embedded_isomorphism, check_score_square, check_vector_product_decomposition)


def test_every_rotor_check_draws_its_own_elements(monkeypatch):
    # one stream for the whole suite: no check re-runs another's inputs, and
    # only the rotor checks draw even elements; a bilinear check that drew again fails here
    draws, callers = [], []
    real = identities._even_elements

    def recording(frames, rng):
        k, q = real(frames, rng)
        draws.append(k.tobytes())
        callers.append(sys._getframe(1).f_code.co_name)
        return k, q

    monkeypatch.setattr(identities, "_even_elements", recording)
    run_identity_checks()
    assert callers == ["check_rotor_rotation", "check_rotor_unit"]
    assert len(set(draws)) == 2
    for check in BASIS_CHECKS:
        assert "rng" not in inspect.signature(check).parameters, check.__name__


def test_checks_have_distinct_names():
    results = run_identity_checks(n_pairs=10)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    # `identities` pads each name to 55 columns, so a longer one would shift its residual
    assert max(map(len, names)) <= 55


def lines_of(monkeypatch, check, *args):
    """The suite's lines that print the residuals of the calls of `check`
    whose leading arguments are `args`: the lines that read NaN once those
    calls return NaN in place of their residuals."""
    real = getattr(identities, check)

    def marked(*call, **kwargs):
        got = real(*call, **kwargs)
        return np.full(np.shape(got), np.nan) if call[:len(args)] == args else got

    with monkeypatch.context() as patch:
        patch.setattr(identities, check, marked)
        return [r.name for r in run_identity_checks() if math.isnan(r.residual)]


def fails(residual) -> bool:
    """Whether the suite prints a line with this residual as FAIL."""
    return not CheckResult("", residual).passed


@pytest.mark.parametrize("check, residuals", [("check_duality", 0.0), ("check_vector_basis_flip", np.zeros(2))],
                         ids=["one for two names", "two for one name"])
def test_a_check_with_the_wrong_number_of_residuals_fails_the_run(monkeypatch, tmp_path, capsys, check, residuals):
    # no line may pass, or go missing, without its check having run
    monkeypatch.setattr(identities, check, lambda *args: residuals)
    with pytest.raises(ValueError, match="zip"):
        run_identity_checks()
    assert cli.main(["identities", "--out", str(tmp_path / "out")]) == cli.EXIT_INTERNAL == 3
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("seed", [0, 17, 49])
@pytest.mark.parametrize("n_pairs", [1, 333])
def test_every_check_is_exact_whatever_the_seed(seed, n_pairs):
    # the oracle and rotor inputs are integers small enough for exact floats
    results = run_identity_checks(n_pairs=n_pairs, seed=seed)
    assert [r.residual for r in results] == [0.0] * len(results)


def test_injected_sign_flip_is_caught():
    results = run_identity_checks(n_pairs=50, inject_sign_flip=True)
    failed = [r.name for r in results if not r.passed]
    # the corrupted epsilon sign surfaces in exactly the abstract-side checks
    # that multiply two different directions
    assert failed == [
        "combined orientation identity (lam=+1)",
        "combined orientation identity (lam=-1)",
        "abstract/embedded isomorphism (lam=+1)",
        "abstract/embedded isomorphism (lam=-1)",
    ]
    # one basis pair's epsilon term comes out as -beta_l instead of beta_l
    assert [r.residual for r in results if not r.passed] == [2.0] * 4
    # the embedded-frame checks stay untouched by the injection
    passed = {r.name for r in results if r.passed}
    assert any("frame score expansion" in name for name in passed)


def test_check_result_passed_property():
    assert CheckResult("x", 0.0).passed
    assert not CheckResult("x", 1e-300).passed
    assert not CheckResult("x", math.nan).passed


def test_suite_is_deterministic_for_fixed_seed():
    a = run_identity_checks(n_pairs=50, seed=5)
    b = run_identity_checks(n_pairs=50, seed=5)
    assert [(r.name, r.residual) for r in a] == [(r.name, r.residual) for r in b]


def test_suites_refuse_to_run_without_random_pairs():
    # with no pairs the dense Cl(3) oracle check would pass without having multiplied
    with pytest.raises(ValueError, match="n_pairs"):
        run_identity_checks(n_pairs=0)


def test_suites_refuse_more_pairs_than_fit_in_memory():
    with pytest.raises(ValueError, match=r"n_pairs must be <= 1000000, got 1000001"):
        run_identity_checks(n_pairs=identities.MAX_PAIRS + 1)


# -- the bilinear identities on the basis ---------------------------------------------


@pytest.mark.parametrize("table, n", [(identities._VECTOR_PAIRS, 3), (identities._ELEMENT_PAIRS, 4)],
                         ids=["vectors", "elements"])
def test_basis_tables_list_every_ordered_pair_once(table, n):
    left, right = table
    assert left.shape == right.shape == (n * n, n)
    for factor in table:
        # every row is one basis row, and the table cannot be changed in place
        assert set(factor.ravel().tolist()) == {0.0, 1.0} and factor.sum(axis=1).tolist() == [1.0] * n * n
        assert not factor.flags.writeable
    pairs = list(zip(left.argmax(axis=1).tolist(), right.argmax(axis=1).tolist()))
    assert pairs == list(itertools.product(range(n), repeat=2))


def eps_term_flipped(l, first):
    """`_structure_coeffs` with the sign of one epsilon term of beta_l flipped:
    s x_j y_k when `first`, else -s x_k y_j, for (j, k, l) cyclic, 1-based."""
    real = frames._structure_coeffs
    j, k = l % 3 + 1, (l + 1) % 3 + 1

    def mutant(x, y, s):
        out = list(real(x, y, s))
        out[l] = out[l] - 2 * s * x[j] * y[k] if first else out[l] + 2 * s * x[k] * y[j]
        return tuple(out)
    return mutant


def cross_term_dropped(i, first):
    """`_cross` without one term of component i: a_j b_k when `first`, else
    -a_k b_j, for (i, j, k) cyclic, 0-based."""
    real = multivector._cross
    j, k = (i + 1) % 3, (i + 2) % 3

    def mutant(a, b):
        a, b = np.asarray(a), np.asarray(b)
        out = real(a, b)
        out[..., i] -= a[..., j] * b[..., k] if first else -a[..., k] * b[..., j]
        return out
    return mutant


def failed_checks(monkeypatch, name, mutant):
    """The checks that fail when the modules that bind `name` bind `mutant`."""
    for module in (frames, identities):
        if name in vars(module):
            monkeypatch.setattr(module, name, mutant)
    return [r.name for r in run_identity_checks() if not r.passed]


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("first", [True, False])
def test_a_flipped_epsilon_term_is_caught_on_the_basis(monkeypatch, l, first):
    assert failed_checks(monkeypatch, "_structure_coeffs", eps_term_flipped(l, first)) == [
        "combined orientation identity (lam=+1)",
        "combined orientation identity (lam=-1)",
        "abstract/embedded isomorphism (lam=+1)",
        "abstract/embedded isomorphism (lam=-1)",
    ]


@pytest.mark.parametrize("i", [0, 1, 2])
@pytest.mark.parametrize("first", [True, False])
def test_a_dropped_cross_product_term_is_caught_on_the_basis(monkeypatch, i, first):
    # the rotor rotation's reference M(q) v takes a cross product of random integer vectors too
    assert failed_checks(monkeypatch, "_cross", cross_term_dropped(i, first)) == [
        "frame score expansion, epsilon sign - (lam=+1)",
        "frame score expansion, epsilon sign + (lam=-1)",
        "combined orientation identity (lam=+1)",
        "combined orientation identity (lam=-1)",
        "orientation duality relation (lam=+1)",
        "orientation duality relation (lam=-1)",
        "rotor sandwich rotates by twice the angle",
    ]


def interleaved_scores(n):
    """`frames._scores` with the orientations of its columns interleaved."""
    return np.vstack([np.zeros(2 * len(n)), np.tile(frames._LAM, len(n)) * np.concatenate([n, n]).T])


def test_interleaved_score_orientations_fail_the_score_square_lines(monkeypatch):
    # lam**2 = 1 cancels in every product of two scores; only the scores' own coefficients see lam
    assert failed_checks(monkeypatch, "_scores", interleaved_scores) == [
        "standard score squares to -1 (lam=+1)",
        "standard score squares to -1 (lam=-1)",
    ]


# -- the naive oracle ------------------------------------------------------------------


@pytest.mark.parametrize("dim", range(1, 9))
def test_naive_table_matches_the_brute_force_oracle(dim):
    masks, signs = _naive_table(dim)
    want = np.array(_blade_table(dim)).reshape(-1, 2)
    assert masks.tolist() == want[:, 0].tolist()
    assert signs.tolist() == want[:, 1].tolist()


@pytest.mark.parametrize("dim, n_pairs", [(3, 20), (3, 1000), (7, 5)])
def test_batched_naive_products_equal_one_pair_at_a_time(dim, n_pairs):
    masks, signs = _naive_table(dim)
    x, y = np.random.default_rng(n_pairs).normal(size=(2, n_pairs, 1 << dim))
    one_at_a_time = [np.bincount(masks, weights=np.outer(a, b).ravel() * signs, minlength=1 << dim)
                     for a, b in zip(x, y)]
    assert identities._naive_product(x, y, masks, signs).tobytes() == np.stack(one_at_a_time).tobytes()


@pytest.mark.parametrize("rows", [1, 3, 256])
@pytest.mark.parametrize("wrong", [0, 19])
def test_naive_oracle_chunks_see_every_row(monkeypatch, rows, wrong):
    # blocks and chunks of 1 row, 3 with a ragged last one, and one of each for all 20
    real, blocks = identities._product, []

    def one_row_off(kind, x, y):
        # pair `wrong` of the check, in whichever block it falls
        out, at = real(kind, x, y), wrong - sum(blocks)
        if 0 <= at < len(out):
            out[at, 5] += 1.0
        blocks.append(len(out))
        return out

    monkeypatch.setattr(identities, "_product", one_row_off)
    monkeypatch.setattr(identities, "_chunk_rows", lambda cells: rows)
    assert check_product_against_naive_oracle(3, np.random.default_rng(0), n_pairs=20) > 0.5
    assert sum(blocks) == 20


def nan_rows(monkeypatch, rows):
    """Make the suite's product kernel return NaN in `rows` of every batched product."""
    real = identities._product

    def with_nan(kind, x, y):
        out = real(kind, x, y)
        if out.ndim > 1:
            out[rows] = np.nan
        return out

    monkeypatch.setattr(identities, "_product", with_nan)


@pytest.mark.parametrize("rows", [[7], slice(None)], ids=["one row", "every row"])
def test_a_nan_row_fails_the_cl3_oracle_check(monkeypatch, rows):
    # the fold over the chunks' maxima must keep a NaN, as np.maximum does and max does not
    nan_rows(monkeypatch, rows)
    residual = check_product_against_naive_oracle(3, np.random.default_rng(0), n_pairs=20)
    assert math.isnan(residual) and fails(residual)


def test_a_nan_pair_fails_the_cl7_oracle_check(monkeypatch):
    # at Cl(7) each chunk is one pair; the NaN pair is the fourth of five
    nan_rows(monkeypatch, [3])
    residual = check_product_against_naive_oracle(7, np.random.default_rng(0), n_pairs=5)
    assert math.isnan(residual) and fails(residual)


def test_a_nan_volume_element_fails_the_basis_flip_check(monkeypatch):
    # the flipped I is compared with a NaN I, the second of the check's two residuals
    monkeypatch.setattr(identities, "_VOLUME3", np.full(8, np.nan))
    residual = check_vector_basis_flip()
    assert math.isnan(residual) and fails(residual)


def test_naive_oracle_memory_is_its_inputs_and_a_few_chunks():
    n_pairs = 20_000
    check_product_against_naive_oracle(3, np.random.default_rng(0), n_pairs=1)  # fill the caches
    tracemalloc.start()
    try:
        residual = check_product_against_naive_oracle(3, np.random.default_rng(0), n_pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual == 0.0
    # a block's x, y and fast product, one chunk each, the next block's draws and the
    # naive chunk's terms; x and y of all 20,000 pairs at once would take 19.5 chunks
    assert peak < 8 * multivector._CHUNK_BYTES


def test_suite_memory_is_flat_in_the_pairs():
    run_identity_checks(n_pairs=20)  # fill the caches

    def peak(n_pairs):
        tracemalloc.start()
        try:
            run_identity_checks(n_pairs=n_pairs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10**5) - peak(20) < 1 << 20


def float32_left_factor(monkeypatch):
    """Make the suite's product kernel round its left factor to float32 first."""
    real = identities._product
    monkeypatch.setattr(identities, "_product",
                        lambda kind, x, y: real(kind, x.astype(np.float32).astype(np.float64), y))


def test_a_float32_left_factor_fails_both_oracle_lines(monkeypatch):
    # the 2**26 bound of x is wider than float32's significand; every other line multiplies
    # integers that float32 holds exactly, and passes
    float32_left_factor(monkeypatch)
    failed = [r.name for r in run_identity_checks() if not r.passed]
    assert failed == ["fast product vs naive blade multiplier, Cl(3,0)", ORACLE_CL7]


def test_naive_table_memory_is_bounded_by_its_chunk():
    # the build itself: a call that the per-process cache answers allocates nothing
    tracemalloc.start()
    try:
        _naive_table.__wrapped__(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("dim", [3, 7])
def test_naive_table_is_built_once_and_read_only(dim):
    masks, signs = _naive_table(dim)
    assert _naive_table(dim)[0] is masks
    for table in (masks, signs):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


ORACLE_CL7 = "fast product vs naive blade multiplier, Cl(7,0)"


def test_a_cached_naive_table_still_catches_a_corrupted_algebra(monkeypatch, tmp_path):
    # a clean suite fills the cache; what it caches must not hide a later fault
    assert all(r.passed for r in run_identity_checks(n_pairs=10))
    flip_kernel_sign(monkeypatch, 5, 12)
    assert fails(check_product_against_naive_oracle(7, np.random.default_rng(0), n_pairs=5))
    monkeypatch.undo()
    argv = ["identities", "--pairs", "10", "--inject-sign-flip", "--out", str(tmp_path)]
    assert cli.main(argv) == 1


def test_oracle_check_catches_a_flipped_cayley_sign(monkeypatch):
    # the exhaustive half: the Cayley table that the check reads is corrupted
    assert lines_of(monkeypatch, "check_product_against_naive_oracle", 7) == [ORACLE_CL7]
    corrupt_tables(monkeypatch, 7, flip_sign(5, 9))
    assert fails(check_product_against_naive_oracle(7, np.random.default_rng(0), n_pairs=5))


def test_oracle_check_catches_a_flipped_product_sign(monkeypatch):
    # the dense half: the product kernel's index table is corrupted, the Cayley
    # table is not, so only the random products can see it
    assert lines_of(monkeypatch, "check_product_against_naive_oracle", 7) == [ORACLE_CL7]
    flip_kernel_sign(monkeypatch, 5, 12)
    assert fails(check_product_against_naive_oracle(7, np.random.default_rng(0), n_pairs=5))


# -- exact associativity of the blade table -------------------------------------------------


def associativity_by_loop(xor, sign) -> int:
    """Blade triples (A, B, C) whose (e_A e_B) e_C and e_A (e_B e_C) differ in
    sign or mask, one triple at a time: the law itself, on the tables."""
    return sum(
        (sign[a, b] * sign[xor[a, b], c], xor[xor[a, b], c]) != (sign[b, c] * sign[a, xor[b, c]], xor[a, xor[b, c]])
        for a, b, c in itertools.product(range(len(xor)), repeat=3)
    )


def bilinear_laws_by_loop(xor, sign) -> int:
    """Blade pairs whose mask is not A ^ B, plus blade pairs whose sign bit
    (1 for -1) is not the parity of the generator block's bits p[e_i, e_j]
    over i in A and j in B, one pair and one generator pair at a time."""
    dim = len(xor).bit_length() - 1
    p = (sign < 0).astype(int)
    blades, gens = range(len(xor)), range(dim)
    extension = [[sum(p[1 << i, 1 << j] for i in gens if a >> i & 1 for j in gens if b >> j & 1) % 2 for b in blades]
                 for a in blades]
    return sum(int(xor[a, b] != a ^ b) + int(p[a, b] != extension[a][b])
               for a, b in itertools.product(blades, repeat=2))


def corrupt_tables(monkeypatch, dim, mutate):
    """Let the identity checks read copies of the Cayley tables that
    `mutate(xor, sign)` changed; return the copies."""
    xor, sign, grades = multivector._tables(dim)
    xor, sign = xor.copy(), sign.copy()
    mutate(xor, sign)
    monkeypatch.setattr(identities, "_tables", lambda d: (xor, sign, grades))
    return xor, sign


def flip_sign(i, k):
    def mutate(xor, sign):
        sign[i, k] *= -1
    return mutate


def move_mask(i, k, to):
    def mutate(xor, sign):
        xor[i, k] = xor[i, to]
    return mutate


@pytest.mark.parametrize("dim", range(1, 9))
def test_associativity_is_exact_and_makes_no_product(monkeypatch, dim):
    if dim in (3, 7):  # the dimensions that the suite prints
        assert lines_of(monkeypatch, "check_associativity", dim) == [f"associativity of the blade table, Cl({dim},0)"]

    def no_kernel(*args):
        raise AssertionError("the associativity check multiplied")

    monkeypatch.setattr(identities, "_product", no_kernel)
    residual = check_associativity(dim)
    assert list(inspect.signature(check_associativity).parameters) == ["dim"]
    assert type(residual) is float and residual == 0.0


@pytest.mark.parametrize("dim", range(1, 5))
@pytest.mark.parametrize("mutate", [None, flip_sign(1, -1), flip_sign(0, 1), move_mask(-1, 1, 0)],
                         ids=["clean", "flip-sign", "flip-scalar-sign", "move-mask"])
def test_associativity_counts_what_a_triple_loop_counts(monkeypatch, dim, mutate):
    xor, sign = corrupt_tables(monkeypatch, dim, mutate or (lambda xor, sign: None))
    residual = check_associativity(dim)
    assert residual == bilinear_laws_by_loop(xor, sign)
    # the two laws are stricter than the triple law: they never pass a table it fails
    assert residual > 0 or associativity_by_loop(xor, sign) == 0
    # every mutant is caught but one: Cl(1)'s flipped sign, e1 e1 = -1, is the table
    # of Cl(0,1), whose signs are bilinear in its own generator block.  Cl(1)'s moved
    # mask, e1 e1 = e1, keeps the triple law and is caught all the same.
    cl01 = dim == 1 and sign.tolist() == [[1, 1], [1, -1]] and xor.tolist() == [[0, 1], [1, 0]]
    assert (residual > 0) == (mutate is not None and not cl01)


@pytest.mark.parametrize("mutate", [flip_sign(5, 9), flip_sign(0, 3), move_mask(5, 9, 10), flip_sign(4, 2)])
def test_associativity_catches_a_corrupted_cayley_table(monkeypatch, mutate):
    xor, sign = corrupt_tables(monkeypatch, 7, mutate)
    clean_xor, clean_sign, _ = multivector._tables(7)
    moved, flipped = np.count_nonzero(xor != clean_xor), np.count_nonzero(sign != clean_sign)
    residual = check_associativity(7)
    assert fails(residual)
    if sign[4, 2] == clean_sign[4, 2]:  # one wrong pair: a mask, or the sign of a non-generator pair
        assert residual == moved + flipped == 1
    else:
        # e3 e2 = +e2 e3 reshapes the extension: p[A, B] moves wherever e3 is in A and
        # e2 is in B, a quarter of the 128 * 128 pairs, all but the flipped one itself
        assert residual == 128 * 128 // 4 - 1


def every_single_entry_mutant(dim):
    """Each table of Cl(dim,0) with one sign flipped or one mask moved to another blade."""
    for i, k in itertools.product(range(1 << dim), repeat=2):
        yield flip_sign(i, k)
        yield from (move_mask(i, k, to) for to in range(1 << dim) if to != k)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_associativity_catches_every_mutant_that_the_triple_law_catches(monkeypatch, dim):
    caught = 0
    for mutate in every_single_entry_mutant(dim):
        xor, sign = corrupt_tables(monkeypatch, dim, mutate)
        residual = check_associativity(dim)
        assert residual > 0 or associativity_by_loop(xor, sign) == 0
        caught += residual > 0
    # 8**dim mutants, all caught but Cl(0,1)'s table, e1 e1 = -1
    assert caught == 8**dim - (dim == 1)


@pytest.mark.parametrize("dim, pairs", [(3, 18), (7, 18 * 16 * 16)])
def test_associativity_fails_a_cubic_twist_that_keeps_the_triple_law(monkeypatch, dim, pairs):
    # Cl(dim,0)'s signs times (-1)^(f(A) + f(B) + f(A^B)) for the cubic f(A) = a1 a2 a3:
    # an associative table that is not Cl(dim,0)'s
    def twist(xor, sign):
        f = np.arange(1 << dim) & 7 == 7
        sign *= np.where(f[:, None] ^ f ^ f[xor], -1, 1).astype(np.int8)

    xor, sign = corrupt_tables(monkeypatch, dim, twist)
    if dim == 3:
        assert associativity_by_loop(xor, sign) == 0
    else:  # the signs of (e_A e_B) e_C and e_A (e_B e_C) on all 128**3 triples; the masks are untouched
        a, b, c = np.ogrid[:128, :128, :128]
        assert np.array_equal(sign[a, b] * sign[xor[a, b], c], sign[b, c] * sign[a, xor[b, c]])
    # f(A) + f(B) + f(A^B) is odd on 18 of the 64 pairs of the low three bits
    assert check_associativity(dim) == pairs


def test_associativity_memory_is_bounded():
    # a handful of (2**n, 2**n) uint8 arrays: 16 KiB each at Cl(7), 64 KiB at Cl(8)
    for dim, budget in [(7, 1), (8, 4)]:
        multivector._tables(dim)  # the Cayley tables are cached per process; trace the check alone
        tracemalloc.start()
        try:
            residual = check_associativity(dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual == 0.0
        assert peak < budget * multivector._CHUNK_BYTES


# -- batched checks against per-case loops -------------------------------------------------


def bumped_planes(frames, bump):
    """A frame table whose planes are (1 + bump) I . e_j, so that a nonzero
    bump gives every rotor case its own large residual."""
    beta, pairs = frames
    return beta * (1 + bump), pairs


def distance(x: Multivector, y: Multivector) -> float:
    """The coefficient norm of x - y."""
    return float(np.linalg.norm(x.coeffs - y.coeffs))


def rotor_cases(rng, frames, n_cases):
    """The check's integer coefficients k, drawn as one array, and each case's
    even element k0 + sum_j k_j beta_j, one `Multivector` at a time."""
    ks = rng.integers(-6, 7, (n_cases, 4)).astype(np.float64)
    beta = [Multivector(3, b) for b in frames[0][0]]
    return ks, [Multivector(3, k[0] * Multivector.scalar(3, 1.0).coeffs
                            + sum(kj * b.coeffs for kj, b in zip(k[1:], beta))) for k in ks]


def quaternion_matrix(a, b, c, d):
    """The unnormalised rotation matrix of the quaternion a + b i + c j + d k."""
    return np.array([[a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
                     [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
                     [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d]])


def rotor_rotation_by_loop(rng, frames, n_cases):
    # the check's draws, then one case at a time against the quaternion of vector part -w
    ks, qs = rotor_cases(rng, frames, n_cases)
    vs = rng.integers(-6, 7, (n_cases, 3)).astype(np.float64)
    worst = 0.0
    for k, q, v in zip(ks, qs, vs):
        out = geometric_product(geometric_product(q, Multivector.from_vector(v, dim=3)), reversion(q))
        worst = max(worst, float(np.linalg.norm(out.coeffs[[1, 2, 4]] - quaternion_matrix(k[0], *-k[1:]) @ v)))
    return worst


def rotor_unit_by_loop(rng, frames, n_cases):
    ks, qs = rotor_cases(rng, frames, n_cases)
    return max(distance(geometric_product(q, reversion(q)), Multivector.scalar(3, float(k @ k)))
               for k, q in zip(ks, qs))


@pytest.mark.parametrize("amount", [0.0, 1e-3])
def test_batched_rotor_checks_equal_per_case_loops(amount):
    frames = bumped_planes(_frame_table(_frame_coeffs(ORIENTATIONS)), amount)
    pairs = [
        (check_rotor_rotation(frames, np.random.default_rng(3)),
         rotor_rotation_by_loop(np.random.default_rng(3), frames, identities._ROTOR_CASES)),
        (check_rotor_unit(frames, np.random.default_rng(4)),
         rotor_unit_by_loop(np.random.default_rng(4), frames, identities._ROTOR_CASES)),
    ]
    for batched, looped in pairs:
        if amount:
            # a residual of order 1e-3 that depends on every drawn case
            assert looped > 1e-5
            assert batched == pytest.approx(looped, rel=1e-9)
        else:
            assert batched == looped == 0.0


def test_the_sandwich_turns_by_twice_the_angle_of_its_rotor():
    # q = 1 + e1 e2 is sqrt(2) exp((pi / 4) e1 e2): e1 turns by pi / 2, to -e2, scaled by |q|**2
    q = Multivector.scalar(3, 1.0).coeffs + Multivector.blade(3, 0b011).coeffs
    assert multivector._sandwich(q[None], np.eye(3)[:1]).tolist() == [[0.0, -2.0, 0.0]]


def rng_calls_in_loops(tree) -> dict[int, str]:
    """{line: source} of each call that draws from, or is handed, `rng`
    inside a loop or comprehension of `tree`."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    return {
        node.lineno: ast.unparse(node)
        for loop in ast.walk(tree) if isinstance(loop, loops)
        for node in ast.walk(loop) if isinstance(node, ast.Call)
        if (isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "rng")
        or any(isinstance(arg, ast.Name) and arg.id == "rng" for arg in node.args)
    }


def test_every_random_input_is_drawn_as_one_array():
    # a draw inside a loop or comprehension would take the stream case by case;
    # each check draws every input as one whole array instead, but for the
    # oracle, which draws x and y as one array each per block of pairs
    draws = rng_calls_in_loops(ast.parse(inspect.getsource(identities)))
    oracle = ast.parse(textwrap.dedent(inspect.getsource(check_product_against_naive_oracle)))
    assert sorted(draws.values()) == sorted(rng_calls_in_loops(oracle).values()) == [
        "rng.integers(1 - _X_BOUND, _X_BOUND, shape)", "rng.integers(1 - _Y_BOUND, _Y_BOUND, shape)"]


def anticommutation_by_loop(dim):
    worst = 0.0
    for j in range(1, dim + 1):
        for k in range(1, dim + 1):
            ej, ek = Multivector.basis_vector(dim, j), Multivector.basis_vector(dim, k)
            anti = geometric_product(ej, ek).coeffs + geometric_product(ek, ej).coeffs
            worst = max(worst, float(np.linalg.norm(anti - Multivector.scalar(dim, 2.0 * (j == k)).coeffs)))
    return worst


@pytest.mark.parametrize("dim", [3, 7])
@pytest.mark.parametrize("flip", [False, True])
def test_batched_anticommutation_equals_a_per_pair_loop(monkeypatch, dim, flip):
    if flip:
        flip_kernel_sign(monkeypatch, 1, 3)  # the sign of e_1 e_2
    batched = check_generator_anticommutation(dim)
    assert batched == anticommutation_by_loop(dim)
    assert (batched > 0) == flip


def frame_checks_by_loop(lam):
    """(subalgebra, squares, anticommutation, ordered product) residuals of the
    lam frame, one Multivector product per pair of its bivectors."""
    beta = [Multivector(3, float(lam) * contract(Multivector.volume(3), Multivector.basis_vector(3, j)).coeffs)
            for j in (1, 2, 3)]
    subalgebra = squares = anti = 0.0
    for j in range(1, 4):
        for k in range(1, 4):
            got = geometric_product(beta[j - 1], beta[k - 1])
            if j == k:
                squares = max(squares, distance(got, Multivector.scalar(3, -1.0)))
                continue
            l = 6 - j - k
            eps = (j - k) * (k - l) * (l - j) // 2  # the Levi-Civita symbol eps_jkl
            subalgebra = max(subalgebra, float(np.linalg.norm(got.coeffs - float(-lam * eps) * beta[l - 1].coeffs)))
            anti = max(anti, float(np.linalg.norm(got.coeffs + geometric_product(beta[k - 1], beta[j - 1]).coeffs)))
    ordered = geometric_product(geometric_product(beta[0], beta[1]), beta[2])
    return max(subalgebra, squares), squares, anti, distance(ordered, Multivector.scalar(3, float(lam)))


def vector_basis_flip_by_loop():
    ex, ez = Multivector.basis_vector(3, 1), Multivector.basis_vector(3, 3)
    ey = Multivector(3, -1.0 * Multivector.basis_vector(3, 2).coeffs)
    I_flipped = geometric_product(geometric_product(ex, ey), ez)
    beta = [contract(I_flipped, v) for v in (ex, ey, ez)]
    prod = geometric_product(geometric_product(beta[0], beta[1]), beta[2])
    return max(distance(prod, Multivector.scalar(3, 1.0)),
               float(np.linalg.norm(I_flipped.coeffs + Multivector.volume(3).coeffs)))


#: Which of (subalgebra, squares, anticommutation, ordered product, vector-basis
#: flip) fail under a kernel sign flip at index-table entry (i, k).
FRAME_FLIPS = {
    None: (False, False, False, False, False),
    (3, 0): (True, True, False, True, True),  # e12 e12 = +1: beta_3 squares to +1
    (7, 6): (True, False, False, True, True),  # I . e1 = -e23: beta_1 changes sign
}


#: The four frame-table checks of `frame_checks_by_loop`, in its order.
FRAME_TABLE_CHECKS = (check_frame_subalgebra, check_frame_squares, check_frame_anticommutation, check_ordered_product)


@pytest.mark.parametrize("flip", FRAME_FLIPS)
def test_frame_table_checks_equal_per_pair_loops(monkeypatch, flip):
    names = [lines_of(monkeypatch, check.__name__) for check in FRAME_TABLE_CHECKS]
    if flip:
        flip_kernel_sign(monkeypatch, *flip)
    flip_residual = check_vector_basis_flip()
    assert flip_residual == vector_basis_flip_by_loop()
    frame_table = _frame_table(_frame_coeffs(ORIENTATIONS))
    results = [check(frame_table) for check in FRAME_TABLE_CHECKS]
    # each check returns lam = +1, then lam = -1, each against its own frame's loop
    for side, lam in enumerate(ORIENTATIONS):
        assert all(pair[side].endswith(f"(lam={lam:+d})") for pair in names)
        batched = tuple(pair[side] for pair in results)
        assert batched == frame_checks_by_loop(lam)
        assert tuple(r > 0 for r in (*batched, flip_residual)) == FRAME_FLIPS[flip]


@pytest.mark.parametrize("inject", [False, True])
def test_the_suites_frame_lines_equal_per_pair_loops(inject):
    # the sign-flip canary corrupts the abstract side only: every frame line keeps the loop's residual
    lines = {r.name: r.residual for r in run_identity_checks(inject_sign_flip=inject)}
    for lam in ORIENTATIONS:
        side, hand = ("right", "positive") if lam == 1 else ("left", "negative")
        names = (f"{side}-frame bivector subalgebra", "basis bivectors square to -1",
                 "basis bivectors anticommute", f"ordered frame product is {hand}")
        assert tuple(lines[f"{name} (lam={lam:+d})"] for name in names) == frame_checks_by_loop(lam)


def frame_table_lines(lam):
    """The suite's lines that read the frame table of lam, in suite order: the
    rotor checks build their planes I . e_j from the lam = +1 frame."""
    if lam == 1:
        return ["right-frame bivector subalgebra (lam=+1)", "basis bivectors square to -1 (lam=+1)",
                "basis bivectors anticommute (lam=+1)", "ordered frame product is positive (lam=+1)",
                "frame score expansion, epsilon sign - (lam=+1)", "abstract/embedded isomorphism (lam=+1)",
                "rotor sandwich rotates by twice the angle", "rotor norm and reversion inverse"]
    return ["left-frame bivector subalgebra (lam=-1)", "basis bivectors square to -1 (lam=-1)",
            "basis bivectors anticommute (lam=-1)", "ordered frame product is negative (lam=-1)",
            "frame score expansion, epsilon sign + (lam=-1)", "abstract/embedded isomorphism (lam=-1)"]


def failed_with_a_corrupted_half(monkeypatch, side):
    """The failed lines of a suite whose batched frame table has beta_1 + 1 in
    place of beta_1 in row `side` alone, pair products included."""
    build = identities._frame_table

    def corrupted(beta):
        if beta.ndim == 3:  # the batched table; the vector-basis flip builds its own
            beta = beta.copy()
            beta[side, 0, 0] += 1.0
        return build(beta)

    with monkeypatch.context() as patch:
        patch.setattr(identities, "_frame_table", corrupted)
        return [r.name for r in run_identity_checks() if not r.passed]


@pytest.mark.parametrize("side", [0, 1], ids=["lam=+1", "lam=-1"])
def test_a_corrupted_half_of_the_frame_table_fails_only_its_own_lines(monkeypatch, side):
    assert failed_with_a_corrupted_half(monkeypatch, side) == frame_table_lines(ORIENTATIONS[side])


def mixed_worst_each(rows):
    # the norms read back with the orientation axis last: the halves interleave
    return np.max(np.linalg.norm(rows, axis=-1).reshape(-1, 2).T, axis=1)


def mixed_frame_table(beta):
    beta, pairs = _frame_table(beta)
    if beta.ndim == 2:
        return beta, pairs
    # the 18 pair products read back as if the orientation were their last index
    return beta, pairs.reshape(3, 3, 2, 8).transpose(2, 0, 1, 3)


@pytest.mark.parametrize("name, mutant", [("_worst_each", mixed_worst_each), ("_frame_table", mixed_frame_table)])
def test_a_batch_that_mixes_the_two_halves_is_caught(monkeypatch, name, mutant):
    # under either mutant each half's corruption shows on the other half's lines too
    monkeypatch.setattr(identities, name, mutant)
    for side, lam in enumerate(ORIENTATIONS):
        failed = failed_with_a_corrupted_half(monkeypatch, side)
        assert failed != frame_table_lines(lam)
        assert set(failed) & set(frame_table_lines(-lam))


def test_naive_path_shares_no_code_with_the_product_kernel():
    for fn in (identities._naive_factors, identities._naive_table, identities._naive_product):
        body = inspect.getsource(fn)
        for name in ("_tables", "_gather_index", "grade_of", "_product"):
            assert not re.search(rf"\b{name}\b", body), f"{fn.__name__} names {name}"
