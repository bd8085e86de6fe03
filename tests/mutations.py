"""The register of mutations that the tests must kill, and its runner.

Each entry names a file under src/quenta, a text that occurs in it exactly
once, the text's replacement, and the tests that must fail once it is made.
Run from anywhere, with pytest and hypothesis installed:

    python tests/mutations.py

The runner copies the repository to a temporary directory, less its git and
cache directories, and first requires every named test to pass there.  Then,
for each entry, it copies src/ afresh, makes the replacement and runs the
entry's tests against the copy, and requires each of them to fail.  An entry
whose text is missing, or occurs more than once, fails the run: a change that
rewrites the code rewrites its entries.  It exits 0 only when every entry is
killed.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
_IGNORED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__")


class Mutation(NamedTuple):
    name: str
    file: str  # under src/quenta
    text: str
    replacement: str
    tests: tuple[str, ...]  # test ids; a parametrized test fails when any case does


MUTATIONS = (
    Mutation("normalized reads one word past each prefix of the span", "code.py",
             "S & (1 << size * W) - 1", "S & (1 << (size + 1) * W) - 1",
             ("tests/test_code.py::test_blocks_hold_each_projective_point_once",
              "tests/test_code.py::test_int_enumerator_matches_reference_loop_per_field")),
    Mutation("span drops the zero multiple of each digit row", "code.py",
             "            x = S\n", "            x = S = add(S, b, size)\n",
             ("tests/test_code.py::test_blocks_hold_each_projective_point_once",
              "tests/test_code.py::test_int_enumerator_matches_reference_loop_per_field")),
    Mutation("a chunk repeats its high words as a whole, transposing the low and high words",
             "code.py",
             'b"".join(words[j:j + nb] * size for j in range(0, len(words), nb))', "words * size",
             ("tests/test_code.py::test_blocks_hold_each_projective_point_once",
              "tests/test_code.py::test_int_enumerator_matches_reference_loop_per_field")),
    Mutation("the first block is skipped", "code.py",
             "        yield normalized(0, k_lo, low), ", "        normalized(0, k_lo, low), ",
             ("tests/test_code.py::test_blocks_hold_each_projective_point_once",
              "tests/test_code.py::test_enumerator_weighs_one_word_per_projective_point")),
    Mutation("the chunk loop starts at step", "code.py",
             "range(0, H, step)", "range(step, H, step)",
             ("tests/test_code.py::test_blocks_hold_each_projective_point_once",
              "tests/test_code.py::test_enumerator_weighs_one_word_per_projective_point")),
    Mutation("_light_basis keeps every word without reducing it", "code.py",
             "            if t not in cancel:\n", "            if True:\n",
             ("tests/test_code.py::test_light_basis_is_a_greedy_basis",)),
    Mutation("a 3-bit symbol is folded by doubling shifts, into the next symbol's bit 0",
             "code.py", "        if s & s - 1:\n", "        if False:\n",
             ("tests/test_code.py::test_int_enumerator_matches_reference_loop_per_field",)),
    Mutation("the odd-p carry add drops its correction", "code.py",
             "return t - ((t + K & H) >> self.w - 1) * self.p", "return t",
             ("tests/test_code.py::test_int_enumerator_matches_reference_loop_per_field",)),
    Mutation("code.py imports numpy at the top again", "code.py",
             "from operator import lshift\n", "from operator import lshift\n\nimport numpy as np\n",
             ("tests/test_cli.py::test_lane_field_runs_never_import_numpy",
              "tests/test_cli.py::"
              "test_a_field_without_lane_rows_imports_no_numpy_and_prints_the_same_bytes")),
    Mutation("cyclic_code shifts each lane row up, not down", "code.py",
             "[x >> i * b for i in range(count)]", "[x << i * b for i in range(count)]",
             ("tests/test_code.py::test_cyclic_code_matrices_match_the_tuple_row_reference",
              "tests/test_code.py::test_cyclic_code_rows_vanish_on_their_roots")),
    Mutation("cyclic_code builds H from h(x) not reversed", "code.py",
             "_shifts(base, h.coeffs[::-1], n - k, n)", "_shifts(base, h.coeffs, n - k, n)",
             ("tests/test_code.py::test_cyclic_code_matrices_match_the_tuple_row_reference",
              "tests/test_code.py::test_cyclic_code_rows_vanish_on_their_roots")),
    Mutation("frobenius_images hands G^q0 back as H^q0", "code.py",
             "frobenius_entrywise(self.H, q0)", "frobenius_entrywise(self.G, q0)",
             ("tests/test_code.py::test_frobenius_images_are_built_once_per_code",)),
    Mutation("the generator names its cosets under the splitting field's order", "poly.py",
             "coset_partition(n, base.q)", "coset_partition(n, ext.q)",
             ("tests/test_code.py::test_cyclic_code_matrices_match_the_tuple_row_reference",
              "tests/test_poly.py::test_generator_is_root_product_for_every_closed_set")),
    Mutation("the coset table walks an orbit by adding q, not multiplying", "defset.py",
             "j = j * q % n", "j = (j + q) % n",
             ("tests/test_defset.py::test_the_coset_table_matches_a_brute_force_orbit_walk",
              "tests/test_defset.py::test_cyclotomic_cosets_golden")),
    Mutation("rs-mds reports its two routes' disagreement as a Singleton violation",
             "constructions.py",
             'raise CrossCheckError(\n            f"stated parameters',
             'raise SingletonViolationError(\n            f"stated parameters',
             ("tests/test_cli.py::test_a_construction_whose_two_routes_disagree_exits_3[rs-mds]",)),
    Mutation("rs-hermit reports its two routes' disagreement as a Singleton violation",
             "constructions.py",
             'raise CrossCheckError(\n            f"index-set intersection',
             'raise SingletonViolationError(\n            f"index-set intersection',
             ("tests/test_cli.py::test_a_construction_whose_two_routes_disagree_exits_3[rs-hermit]",)),
    Mutation("_min_weight stops at the first block holding a word of weight 1", "code.py",
             "        least = next((w for w in range(1, least) if w in weights), least)\n",
             "        least = next((w for w in range(1, least) if w in weights), least)\n"
             "        if least == 1:\n"
             "            break\n",
             ("tests/test_code.py::test_distance_weighs_every_normalized_word_of_the_smaller_side",)),
    Mutation("set_modulus_overrides clears the field memos by their public names", "gf.py",
             "    for memo in _FIELD_MEMOS:\n"
             "        memo.cache_clear()\n",
             "    _build_field.cache_clear()\n"
             "    field_from_order.cache_clear()\n"
             "    splitting_field.cache_clear()\n",
             ("tests/test_layertrace.py::test_a_traced_process_survives_an_override_change",)),
    Mutation("_echelon reduces into kept itself, not a copy", "code.py",
             "{} if kept is None else dict(kept)", "{} if kept is None else kept",
             ("tests/test_code.py::test_kept_echelon_gives_the_dimension_identity",)),
    Mutation("_entanglement_rank's dimension identity check is disabled", "oracle.py",
             "    if r != identity:", "    if False:",
             ("tests/test_oracle.py::test_rank_cross_check_raises_on_mismatch",)),
    Mutation("GF.__eq__ is reduced to identity", "gf.py",
             "return self is other or isinstance(other, GF) and self.key == other.key",
             "return self is other",
             ("tests/test_gf.py::test_fields_differing_only_in_modulus_are_unequal",)),
    Mutation("_krawtchouk drops the sign (-1)^s", "code.py",
             "(-1) ** s * (q - 1) ** (j - s)", "(q - 1) ** (j - s)",
             ("tests/test_code.py::test_dual_route_matches_the_direct_enumeration",)),
    Mutation("_distance_from_dual drops B_0 = 1", "code.py",
             "B = {0: 1, **{", "B = {**{",
             ("tests/test_code.py::test_dual_route_matches_the_direct_enumeration",
              "tests/test_code.py::test_high_rate_codes_are_measured_through_their_duals")),
    Mutation("_distance_from_dual drops the (q - 1) factor of B_i", "code.py",
             "(q - 1) * int(c)", "int(c)",
             ("tests/test_code.py::test_dual_route_matches_the_direct_enumeration",
              "tests/test_code.py::test_high_rate_codes_are_measured_through_their_duals")),
    Mutation("a translate table keeps the bytes that are not codes", "code.py",
             "if v in element else 0 for v in range(256))",
             "if v in element else v for v in range(256))",
             ("tests/test_code.py::test_kernels_match_reference_loop",
              "tests/test_code.py::test_kernels_match_reference_loop_on_zero_columns")),
    Mutation("from_codes reads byte rows little-endian", "code.py",
             'return [int.from_bytes(r, "big") for r in rows]',
             'return [int.from_bytes(r, "little") for r in rows]',
             ("tests/test_code.py::test_kernels_match_reference_loop",)),
    Mutation("_tuple_echelon keeps a normalized row's logs without reducing them mod q - 1",
             "code.py", "(j, (log[x[j]] + shift) % q1)", "(j, log[x[j]] + shift)",
             ("tests/test_code.py::test_rref_golden",
              "tests/test_code.py::test_kernels_match_reference_loop")),
    Mutation("_tuple_echelon drops a Zech step's term where the entry is 0", "code.py",
             "if b else exp[t]", "if b else b",
             ("tests/test_code.py::test_rref_golden",
              "tests/test_code.py::test_kernels_match_reference_loop")),
    Mutation("_product_rows reads a digit lane without reducing it mod p", "code.py",
             "(s >> i * width & mask) % p * r", "(s >> i * width & mask) * r",
             ("tests/test_code.py::test_kernels_match_reference_loop",)),
    Mutation("_tuple_echelon reduces into kept itself, not a copy", "code.py",
             "{} if kept is None else kept.copy()", "{} if kept is None else kept",
             ("tests/test_code.py::test_kept_echelon_gives_the_dimension_identity",)),
    Mutation("euclid_lcd drops its hull refusal", "constructions.py",
             "    if hull:\n", "    if False:\n",
             ("tests/test_constructions.py::test_lcd_refusals_keep_their_texts",
              "tests/test_constructions.py::test_euclid_lcd_refuses_nonzero_hull")),
    Mutation("hermitian_lcd keeps hermitian_code's s echo", "constructions.py",
             "inputs=p.inputs[:-1]", "inputs=p.inputs",
             ("tests/test_constructions.py::test_hermitian_lcd_grid_is_hermitian_code_relabelled",)),
    Mutation("bch_euclid hands euclid_pair Z1_dual instead of its dual", "constructions.py",
             "p = euclid_pair(Z1, Z2,", "p = euclid_pair(Z1_dual, Z2,",
             ("tests/test_constructions.py::test_bch_euclid_is_euclid_pair_on_its_own_defsets",
              "tests/test_constructions.py::test_bch_euclid_goldens")),
    Mutation("bch_hermit hands hermitian_code the designed distance a, not a + 1",
             "constructions.py",
             "hermitian_code(q, Z, a + 1, LOWER_BOUND)", "hermitian_code(q, Z, a, LOWER_BOUND)",
             ("tests/test_constructions.py::test_bch_hermit_a2",)),
    Mutation("the subset walk sorts the orbits by their lowest coset", "defset.py",
             "key=lambda o: o[0].bit_length()", "key=lambda o: o[0] & -o[0]",
             ("tests/test_defset.py::test_the_coset_table_matches_a_brute_force_orbit_walk",
              "tests/test_defset.py::test_closed_subsets_are_walked_lazily")),
    Mutation("bch_bound scans once round, not twice", "defset.py",
             "(present * 2).split", "present.split",
             ("tests/test_defset.py::test_bch_bound_matches_a_run_length_reference",
              "tests/test_defset.py::test_bch_bound")),
    Mutation("li-lcd's branch 2 also takes v = 0", "constructions.py",
             "    if v < 0:", "    if v <= 0:",
             ("tests/test_constructions.py::test_lcd_family_odd_m_branches_match_the_search",)),
    Mutation("field_from_order is left out of _FIELD_MEMOS", "gf.py",
             "_FIELD_MEMOS = (_build_field, field_from_order, splitting_field)",
             "_FIELD_MEMOS = (_build_field, splitting_field)",
             ("tests/test_transcripts.py::test_base_field_memo_does_not_outlive_an_override",
              "tests/test_gf.py::"
              "test_modulus_overrides_replace_the_registry_and_rebuild_fields_only_on_change")),
    Mutation("the Euclidean intersection is predicted from Z2, not Z1", "oracle.py",
             "pred_int = len(Z1) - p.c", "pred_int = len(Z2) - p.c",
             ("tests/test_oracle.py::test_predicted_intersection_matches_the_defining_set_arithmetic",)),
    Mutation("the Hermitian hull is predicted as |Z| - k, not |Z| - c", "oracle.py",
             "pred_int = len(Z) - p.c", "pred_int = len(Z) - p.k",
             ("tests/test_oracle.py::test_predicted_intersection_matches_the_defining_set_arithmetic",)),
    Mutation("DefiningSet keeps its residues unreduced", "defset.py",
             "{e % self.n for e in self.elems}", "{e for e in self.elems}",
             ("tests/test_defset.py::test_defset_normalizes",)),
    Mutation("splitting_field gives up past 64 steps again", "gf.py",
             "        s += 1\n    return field_create",
             "        s += 1\n        if s > 64:\n"
             "            raise ValueError(\"no multiplicative order found\")\n    return field_create",
             ("tests/test_cli.py::test_a_splitting_degree_past_64_is_skipped_for_the_degree_cap",)),
    Mutation("a defining-set flag keeps its empty tokens", "cli.py",
             'for tok in text.split(",") if tok.strip() != "")', 'for tok in text.split(","))',
             ("tests/test_cli.py::test_defining_set_flags_skip_empty_tokens",)),
)


def failed_tests(tree: Path, tests) -> tuple[int, set[str]]:
    """(pytest's exit status, the ids of the failed tests) for tests run in tree."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=tree, capture_output=True, text=True)
    return run.returncode, {line.split()[1] for line in run.stdout.splitlines()
                            if line.startswith("FAILED ")}


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORED)
        named = sorted({test for m in MUTATIONS for test in m.tests})
        status, failed = failed_tests(tree, named)
        if status != 0:
            print(f"the named tests do not pass unmutated (pytest exit {status}): "
                  f"{sorted(failed)}", file=sys.stderr)
            return 1
        for m in MUTATIONS:
            shutil.rmtree(tree / "src")
            shutil.copytree(ROOT / "src", tree / "src", ignore=_IGNORED)
            path = tree / "src" / "quenta" / m.file
            source = path.read_text()
            if source.count(m.text) != 1:
                problems.append(f"{m.name}: its text occurs {source.count(m.text)} times "
                                f"in src/quenta/{m.file}, not once")
                continue
            path.write_text(source.replace(m.text, m.replacement))
            _, failed = failed_tests(tree, m.tests)
            survivors = [test for test in m.tests
                         if not any(f == test or f.startswith(test + "[") for f in failed)]
            if survivors:
                problems.append(f"{m.name}: survived {', '.join(survivors)}")
            else:
                print(f"killed: {m.name}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
