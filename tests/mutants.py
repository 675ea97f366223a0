"""Replay a fixed list of source mutants against the tests meant to kill them.

Each mutant is (file under ``src/causalorder``, exact old text, new text,
test node ids).  The script copies ``src/`` to a temporary directory,
applies one mutant at a time to the copy, and runs the named tests
against the copy with ``pytest -x``, one process after another.  A mutant
is killed when its tests fail, a survivor when they pass, and stale when
its old text no longer occurs exactly once in its file.  First the tests
of every mutant run once on the unmutated copy, and must pass.

Run it from the repository root::

    python tests/mutants.py

Pytest does not collect this file (its name does not start with
``test_``).  The exit status is 0 when every mutant is killed, 1 when one
survives or is stale, and 2 when the tests fail on the unmutated copy.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_STORE = "tests/test_io.py::test_loads_sprinkles_and_cover_exports_keep_only_the_packed_forms"
_CLI_STORE = "tests/test_cli.py::test_cli_jobs_leave_only_the_store_entries_they_read_again"
_MISSING = "tests/test_measure.py::test_every_table_reader_raises_missing_value"
_FILE_ERRORS = "tests/test_cli.py::test_file_errors_exit_1"
_EVENTS = "tests/test_minkowski.py::test_relation_from_events_matches_the_full_matrix"
_COVER = "tests/test_io.py::test_cover_relation_is_transitive_reduction"
_RECONSTRUCTIONS = "tests/test_reconstruction.py::test_reconstruction_matches_reference_on_every_small_poset"
_K66 = "tests/test_algebra.py::test_k66_law_counts_pinned"
_SCANS = "tests/test_algebra.py::test_laws_and_closures_equal_the_scans_up_to_the_cap"
_PRODUCTS = "tests/test_source.py::test_matrix_products_only_in_the_kernel"
_PRODUCT = "                    acc = x @ row[bk]\n"
_FAMILY_STORE = "tests/test_algebra.py::test_family_array_built_on_first_use"
_INFINITIES = "tests/test_measure.py::test_super_multiplicativity_skips_equality_between_infinities"
_LOGARITHM = "tests/test_measure.py::test_entropy_of_a_value_without_logarithm"
_EXTENSIONS = "tests/test_measure.py::test_extensions_match_the_loop_over_the_family"
_FAST_PATH = "tests/test_io.py::test_library_framings_take_the_fast_path"
_EVERY_BYTE = "tests/test_io.py::test_reader_matches_json_loads_on_every_byte_of_the_relation"
_LAST_ROW = "tests/test_io.py::test_reader_matches_json_loads_on_a_separator_of_the_last_row"
_CERTIFIED = "tests/test_minkowski.py::test_certified_sprinkle_runs_no_product_until_its_cover_is_read[1]"
_UNCERTIFIED = "tests/test_minkowski.py::test_uncertified_events_take_the_validation"
_FOREIGN = "tests/test_algebra.py::test_queries_reject_objects_of_another_causality"
_WALKED_LAWS = "tests/test_algebra.py::test_law_counts_walked_one_row_at_a_time[k34]"
_SUPERSETS = "tests/test_algebra.py::test_superset_pairs_equal_the_scan_on_every_small_poset"
_WALKED_SCANS = "tests/test_measure.py::test_measure_scans_walked_one_row_at_a_time[above-Kind.DIVERGENT-grid33]"

MUTANTS = [
    # guards on the arguments of public calls
    ("order.py",
     "if any(v is None for v in perm):",
     "if False:",
     ["tests/test_order.py::test_point_map_validation_rejects_a_mapping_that_misses_a_point"]),
    ("order.py",
     "if perm[j] != i:",
     "if False:",
     ["tests/test_order.py::test_point_map_validation_rejects_non_involution"]),
    ("measure.py",
     "if self.kind not in (Kind.DIVERGENT, Kind.CONVERGENT):",
     "if False:",
     ["tests/test_measure.py::test_measure_rejects_the_kind_both"]),
    ("measure.py",
     "if u.parent is not self.parent:",
     "if False:",
     ["tests/test_measure.py::test_measure_value_rejects_a_set_of_another_causality"]),
    ("reconstruction.py",
     "if p not in self.points:",
     "if False:",
     ["tests/test_reconstruction.py::test_regular_causality_point_ok_rejects_an_unknown_id"]),
    # relation entries: a non-bool relation cast to bool unchecked
    ("order.py",
     "bad = [] if rel.dtype == bool else np.argwhere((rel != 0) & (rel != 1))",
     "bad = []",
     ["tests/test_order.py::test_validate_rejects_entries_other_than_0_and_1_as_a_file_does"]),
    # the order: relation kept in the store again
    ("order.py",
     'return _frozen(_unpack(self._derived["rows"], self.n))',
     'return _stored(self, "relation", lambda c: _frozen(_unpack(c._derived["rows"], c.n)))',
     [_STORE]),
    # the vertex-group tables stored again; the superset-pair count off by
    # one, with the f pairs of a member with itself added twice, or with
    # ∅'s cone empty, so that ∅ pairs with nothing
    ("algebra.py",
     "group, size, union, vertices = _vertex_groups(c, kind)",
     'group, size, union, vertices = _stored(c, ("groups", kind), _vertex_groups, kind)',
     [_CLI_STORE]),
    ("algebra.py",
     "common, size, dtype=np.int64)) + len(vertices[0])) // 2",
     "common, size, dtype=np.int64)) + len(vertices[0])) // 2 - 1",
     ["tests/test_cli.py::test_verify_k66_union_laws_as_scanned",
      "tests/test_algebra.py::test_laws_and_closures_equal_the_scans_on_every_small_poset"]),
    ("algebra.py",
     "common, size, dtype=np.int64)) + len(vertices[0])) // 2",
     "common, size, dtype=np.int64)) + 2 * len(vertices[0])) // 2",
     [_SUPERSETS]),
    ("algebra.py",
     "cone = np.array([*_rows_cones(c, side)[0], _NONE], dtype=np.uint64)[v]",
     "cone = np.array([*_rows_cones(c, side)[0], 0], dtype=np.uint64)[v]",
     [_SUPERSETS]),
    # a measure's values: a second σ array, or a bare table read
    ("measure.py",
     "    fam, sigma = _family_sigma(c, measure)\n    if (sigma == 1.0).all():",
     "    fam = _family_array(c, measure.kind)\n"
     "    sigma = np.array([measure.table[m] for m in fam.tolist()], dtype=float)\n"
     "    if (sigma == 1.0).all():",
     [_MISSING,
      "tests/test_cli.py::test_verify_monotonicity_of_incomplete_measure_exits_2"]),
    ("measure.py",
     "[0.0, *map(measure._sigma,",
     "[0.0, *map(measure.table.__getitem__,",
     [_MISSING]),
    ("measure.py",
     "[math.inf, *map(measure._sigma,",
     "[math.inf, *map(measure.table.__getitem__,",
     [_MISSING]),
    # the density test
    ("reconstruction.py",
     "*_ribbon_pair_masks(c, p, pair)) is None",
     "*_ribbon_pair_masks(c, p, pair)) is not None",
     ["tests/test_reconstruction.py::test_no_dense_pair_on_fixtures"]),
    # relation lists: the ragged-row check
    ("io.py",
     "len({len(row) for row in rows}) > 1",
     "len({len(row) for row in rows}) > 2",
     ["tests/test_io.py::test_ragged_relation_names_the_first_short_row"]),
    # horizon entropy: a boosted diamond, and the CLI's slice radius
    ("minkowski.py",
     "lo, hi = _diamond_apexes(desc)\n        r = ",
     "lo, hi = desc.apex, desc.apex2\n        r = ",
     ["tests/test_minkowski.py::test_diamond_offset_apexes_rejected_for_area"]),
    ("cli.py",
     "span = _cross_section_radius(desc, args.t)",
     "span = args.t",
     ["tests/test_cli.py::test_entropy_bekenstein_hawking"]),
    # CLI file errors and --apex
    ("cli.py",
     "except (OSError, json.JSONDecodeError) as exc:",
     "except (FileNotFoundError, json.JSONDecodeError) as exc:",
     [_FILE_ERRORS]),
    ("cli.py",
     'what = "read input" if mode == "r" else "write output"',
     'what = "read input"',
     [_FILE_ERRORS]),
    ("cli.py",
     "apex = _parse_apex(args.apex) if args.apex",
     'apex = tuple(map(float, args.apex.split(","))) if args.apex',
     ["tests/test_cli.py::test_entropy_bad_apex_is_a_usage_error"]),
    # sprinkled relations: tie columns dropped, no un-permute, rows only
    ("minkowski.py",
     "start = int(np.searchsorted(t, t[lo]))",
     "start = lo",
     [_EVENTS]),
    ("minkowski.py",
     "return out.take(back, 0).take(back, 1), ",
     "return out, ",
     [_EVENTS]),
    ("minkowski.py",
     "return out.take(back, 0).take(back, 1), ",
     "return out.take(back, 0), ",
     [_EVENTS]),
    # the rounding certificate: τ dropped, so any nonzero ŝ certifies; no
    # guard against NaN and inf; the diagonal's n cells, where ŝ = 0,
    # taken for certified, so that no sprinkle certifies; no bound on d
    ("minkowski.py",
     "~(np.abs(sq, out=sq) > tau)",
     "~(np.abs(sq, out=sq) > 0)",
     [_UNCERTIFIED + "[near-lightlike]"]),
    ("minkowski.py",
     "math.isfinite(norm) and uncertain == n",
     "uncertain == n",
     [_UNCERTIFIED + "[nan]"]),
    ("minkowski.py",
     "and uncertain == n",
     "and uncertain == 0",
     [_CERTIFIED]),
    ("minkowski.py",
     " and d < 4000",
     "",
     [_UNCERTIFIED + "[d=4000]"]),
    # guards of the Minkowski bridge and of the per-set queries
    ("minkowski.py",
     "        if self.n < 0:\n",
     "        if False:\n",
     ["tests/test_minkowski.py::test_sprinkle_config_validation"]),
    ("minkowski.py",
     "        if bad is None:\n            raise\n",
     "",
     ["tests/test_minkowski.py::test_events_numpy_cannot_read_raise_numpys_error"]),
    ("minkowski.py",
     "if self.kind is ConeKind.PAST_CONE and self.cut > self.apex[0]:",
     "if False:",
     ["tests/test_minkowski.py::test_descriptor_validation"]),
    ("minkowski.py",
     "elif causality.n != len(events):",
     "elif False:",
     ["tests/test_minkowski.py::test_region_selection_rejects_a_causality_of_another_size"]),
    ("algebra.py",
     "    if u._parent is not c:\n",
     "    if False:\n",
     [_FOREIGN + "[classify]"]),
    ("algebra.py",
     "if a._parent is not c or b._parent is not c:\n"
     "        raise ValueError(\"operands must belong to this causality\")\n"
     "    a, b = a._mask, b._mask",
     "a, b = a._mask, b._mask",
     [_FOREIGN + "[causal_union]"]),
    # the fixed-stride reader: a check dropped, or the stride off by one
    ("io.py",
     "    for offset, dtype, value in words:\n",
     "    for offset, dtype, value in []:\n",
     [_EVERY_BYTE, _LAST_ROW]),
    ("io.py",
     "    if digits.max() > 1:\n        return None\n",
     "",
     [_EVERY_BYTE]),
    ("io.py",
     "    if joints.tobytes() != joint.encode() * (n - 1):\n        return None\n",
     "",
     [_EVERY_BYTE]),
    ("io.py",
     "stride = row_len + len(row_sep)  #",
     "stride = row_len + len(row_sep) + 1  #",
     [_FAST_PATH]),
    # validation: antisymmetry not read off the product's diagonal
    ("order.py",
     "    if np.diagonal(square).any():\n"
     "        i, j = np.argwhere(strict & strict.T)[0]\n"
     "        raise NotAntisymmetric(int(i), int(j))\n",
     "",
     ["tests/test_order.py::test_validate_rejects_symmetry",
      "tests/test_order.py::test_validate_names_the_first_symmetric_pair_past_the_block_size"]),
    # the product kernel's layout, the cover that validation keeps, read
    # afresh per call, and the cover made from the rows
    ("order.py",
     "return out.take(back, 0).take(back, 1)  # C order",
     "return out[back][:, back]  # C order",
     ["tests/test_kernel.py::test_blocked_compose_returns_c_order"]),
    ("io.py",
     'bits = _stored(c, "cover", _cover_of)',
     "bits = _cover_of(c)",
     ["tests/test_kernel.py::test_reverse_structure_takes_its_cover_with_no_product[300]"]),
    ("order.py",
     "return _pack(strict & ~square)",
     "return _pack(strict)",
     [_COVER]),
    ("order.py",
     "return _frozen(_pack(strict & ~_compose(strict, strict)))",
     "return _frozen(_pack(strict))",
     [_CERTIFIED]),
    # reconstruction and the reversal report: an off count, another
    # failing condition, a transpose cell checked, no cap, classes=None,
    # no reference, the last pair as witness
    ("reconstruction.py",
     "count = int(np.count_nonzero(_pair_grid(*_strict_through(c, ip), ip)))",
     "count = int(np.count_nonzero(_pair_grid(*_strict_through(c, ip), ip))) + 1",
     ["tests/test_cli.py::test_reconstruct_l33"]),
    ("reconstruction.py",
     'diag["failing_condition"] = "density"',
     'diag["failing_condition"] = "extension"',
     ["tests/test_reconstruction.py::test_reconstruct_l33_domain_empty_with_diagnostics"]),
    ("reconstruction.py",
     'LawResult("reconstruction-transposes", "holds", checked=0)',
     'LawResult("reconstruction-transposes", "holds", checked=1)',
     [_RECONSTRUCTIONS]),
    ("reconstruction.py",
     '    _cap(c, "order reconstruction")\n    return LawReport(',
     "    return LawReport(",
     ["tests/test_reconstruction.py::test_reconstruct_cap"]),
    ("reconstruction.py",
     "return Ribbon(p, (), regular=True, classes=())",
     "return Ribbon(p, (), regular=True, classes=None)",
     ["tests/test_reconstruction.py::test_congruence_classes_on_empty_ribbon"]),
    ("reconstruction.py",
     "ReconstructionReport((), empty, diagnostics, empty)",
     "ReconstructionReport((), empty, diagnostics, None)",
     ["tests/test_reconstruction.py::test_reconstruct_report_json"]),
    ("reconstruction.py",
     "a, b = int(upper[0]), int(lower[0])",
     "a, b = int(upper[-1]), int(lower[-1])",
     ["tests/test_reconstruction.py::test_density_gap_past_the_first_cell"]),
    # the reverse's packed forms and the cover's columns
    ("order.py",
     "{key: _transpose(c._derived[key], c.n) for key",
     '{key: c._derived[key] if key == "cover" else _transpose(c._derived[key], c.n) for key',
     ["tests/test_kernel.py::test_reverse_structure_takes_its_cover_with_no_product[5]"]),
    # the reverse of an order whose cover is not built builds it
    ("order.py",
     'packed = {key: _transpose(c._derived[key], c.n) for key in ("cover", "rows") if key in c._derived}',
     'packed = {key: _transpose(_stored(c, key, _cover_of), c.n) for key in ("cover", "rows")}',
     [_CERTIFIED]),
    ("order.py",
     "return _pack(np.ascontiguousarray(_unpack(packed, n).T))",
     'return np.packbits(np.ascontiguousarray(_unpack(packed, n).T), axis=1, bitorder="big")',
     ["tests/test_kernel.py::test_views_match_the_matrix_passed_in[300]"]),
    ("io.py",
     "rows, cols = rows[cell], byte[cell] * 8 + bit",
     "rows, cols = rows[cell], byte[cell] * 8 + 7 - bit",
     [_COVER]),
    # union laws by theorem: no join condition, V counted as IV, a wrong
    # witness member, the diagonal left out of the closure count, and the
    # stored union answers used for the witnesses
    ("algebra.py",
     "        if meet & bounds:\n",
     "        if bounds:\n",
     [_K66]),
    ("algebra.py",
     'LawResult(f"V[{tag}]", verdict, ce, law_v, f**3 - law_v)',
     'LawResult(f"V[{tag}]", verdict, ce, law_iv, f**3 - law_iv)',
     [_K66]),
    ("algebra.py",
     "return c.ids_of(below & -below), c.ids_of(above & -above)",
     "return c.ids_of(below), c.ids_of(above & -above)",
     [_SCANS]),
    ("algebra.py",
     "common, size, dtype=np.int64)) + len(vertices[0])) // 2",
     "common, size, dtype=np.int64)) - len(vertices[0])) // 2",
     ["tests/test_algebra.py::test_laws_and_closures_equal_the_scans_at_either_end_of_the_ok_classes[k34]"]),
    ("algebra.py",
     "a, b = (_closed_union(c, 1 << x | 1 << y, 1 << v, kind) for v in (z, w))",
     "a, b = (_union_answer(c, 1 << x | 1 << y, 1 << v, kind) for v in (z, w))",
     [_CLI_STORE]),
    # law counts over vertex groups: the ∅ row left at _NONE, the ∅ corner
    # not zeroed, class sizes counted as 1, the member class dropped,
    # classes merged, classes keyed on a row's first byte
    ("algebra.py",
     "r = np.array([*rows, c.full_mask], dtype=np.uint64)",
     "r = np.array([*rows, 0], dtype=np.uint64)",
     ["tests/test_algebra.py::test_bound_table_of_an_antichain[5]"]),
    ("algebra.py",
     "    meet[c.n, c.n] = 0\n",
     "",
     ["tests/test_algebra.py::test_bound_table_of_an_antichain[5]",
      "tests/test_algebra.py::test_laws_and_closures_equal_the_scans_on_every_small_poset"]),
    ("algebra.py",
     "np.bincount(cls, minlength=k), ok",
     "np.ones(k, dtype=np.int64), ok",
     [_K66]),
    ("algebra.py",
     "cell = ((i - i[0]) * k + cls) * (k + 1)",
     "cell = ((i - i[0]) * k + 0 * cls) * (k + 1)",
     [_K66]),
    # law V: hist's rows summed by class against the class of A where the
    # class of the member M belongs
    ("algebra.py",
     '"a,aK,ag,Kga->"',
     '"a,aK,ag,Kag->"',
     [_K66]),
    # the member-pair walk: the last row of each block dropped
    ("algebra.py",
     "        i = np.arange(lo, min(lo + rows, f))\n",
     "        i = np.arange(lo, min(lo + rows, f))[:-1]\n",
     [_WALKED_LAWS, "tests/test_measure.py::test_measure_axioms_memory_on_the_unordered_pairs"]),
    ("algebra.py",
     "np.unique([row.tobytes() for row in ok]",
     "np.unique([b'' for row in ok]",
     [_K66]),
    ("algebra.py",
     "np.unique([row.tobytes() for row in ok]",
     "np.unique([row.tobytes()[:1] for row in ok]",
     [_K66]),
    # a second product path beside the kernel's @
    ("order.py", _PRODUCT, "                    acc = np.dot(x, row[bk])\n", [_PRODUCTS]),
    ("order.py", _PRODUCT, "                    acc = x.dot(row[bk])\n", [_PRODUCTS]),
    ("order.py", _PRODUCT, "                    acc = np.tensordot(x, row[bk], 1)\n", [_PRODUCTS]),
    # the union answers: recomputed on every call, or kept as PointSets
    ("algebra.py",
     "    answer = c._derived.get((a, b, kind) if a <= b else (b, a, kind))\n"
     "    if answer is None:\n        answer = _union_answer(c, a, b, kind)\n",
     "    answer = _closed_union(c, a, b, kind)\n",
     ["tests/test_algebra.py::test_warm_queries_compute_nothing"]),
    ("algebra.py",
     "    if type(answer) is int:\n        return PointSet(c, answer)\n",
     "    if type(answer) is int:\n"
     "        c._derived[(a, b, kind) if a <= b else (b, a, kind)] = answer = PointSet(c, answer)\n"
     "    if type(answer) is PointSet:\n        return answer\n",
     ["tests/test_source.py::test_store_entries_made_in_one_accessor",
      "tests/test_algebra.py::test_union_answers_leave_no_reference_cycle"]),
    # a family stored once, as an array that family_masks lists afresh
    ("algebra.py",
     "return _family_array(c, kind).tolist()",
     "return _family_array(c, kind)",
     ["tests/test_algebra.py::test_family_masks_hands_out_a_copy"]),
    ("algebra.py",
     'return _stored(c, ("family", kind), _family, kind)',
     'return _stored(c, ("family_arr", kind), lambda c, kind: _stored(c, ("family", kind), _family, kind), kind)',
     [_FAMILY_STORE, _CLI_STORE]),
    ("algebra.py",
     "return classify(c, PointSet(c, operator.index(mask)))",
     "return _CLASSES[_code_of(c, operator.index(mask))]",
     ["tests/test_algebra.py::test_class_of_mask_rejects_masks_outside_the_ground_set"]),
    ("algebra.py",
     "return classify(c, PointSet(c, operator.index(mask)))",
     "return classify(c, PointSet(c, mask))",
     ["tests/test_algebra.py::test_class_of_mask_takes_numpy_integers"]),
    # the entropy: membership by table keys, any extension, a log of 0
    ("measure.py",
     "member = _code_of(c, a.mask) & bits == want",
     "member = a.mask in measure.table",
     ["tests/test_measure.py::test_entropy_reads_the_table_only_on_family_members",
      "tests/test_source.py::test_measure_tables_read_in_one_method"]),
    ("measure.py",
     "    if extend is None:\n",
     "    if extend is None and False:\n",
     ["tests/test_measure.py::test_entropy_rejects_an_unknown_extension_for_every_set"]),
    ("measure.py",
     "if not sigma > 0:",
     "if not sigma >= 0:",
     [_LOGARITHM]),
    ("measure.py",
     "if not sigma > 0:",
     "if sigma <= 0:",
     [_LOGARITHM]),
    # the measure scans, a block of member pairs at a time: the counts
    # restarted in each block, the stop off by one, the triangle without
    # its diagonal, the nested test reversed, the witness's second set
    # read as the first
    ("measure.py",
     "    for checked, bad, witness in blocks:\n",
     "    for checked, bad, witness in blocks:\n        n_checked = n_cases = 0\n",
     [_WALKED_SCANS]),
    ("measure.py",
     "stop = int(hits[0]) + 1 if hits.size",
     "stop = int(hits[0]) if hits.size",
     [_INFINITIES]),
    ("measure.py",
     "keep = i <= j",
     "keep = i < j",
     [_INFINITIES]),
    ("measure.py",
     "keep = meet == fam[i]",
     "keep = meet == fam[j]",
     [_WALKED_SCANS]),
    ("measure.py",
     '"b": c.ids_of(int(fam[j[k]]))',
     '"b": c.ids_of(int(fam[i[k]]))',
     ["tests/test_measure.py::test_super_multiplicativity_matches_pairwise_check"]),
    # the unit table decided from the order: a table near 1 taken for it,
    # crossing not asked, the intersecting pairs of the walk counted for
    # the nested ones, or monotonicity scanned again.  (Nested read down
    # the column, fam[j] ⊆ fam[i], is no mutant: over the whole grid it
    # counts the same pairs, each the other way round.)
    ("measure.py",
     "if (sigma == 1.0).all() and has_crossing_property(c):",
     "if _isclose(sigma, np.ones_like(sigma), EQUALITY_RTOL).all() and has_crossing_property(c):",
     ["tests/test_measure.py::test_a_singleton_off_one_within_the_tolerance_fails_normalization"]),
    ("measure.py",
     "if (sigma == 1.0).all() and has_crossing_property(c):",
     "if (sigma == 1.0).all():",
     ["tests/test_measure.py::test_unit_table_builds_no_union_table_with_crossing[k22]",
      "tests/test_measure.py::test_unit_table_reports_match_the_loops"]),
    ("measure.py",
     "np.count_nonzero(meet == fam[i]))",
     "np.count_nonzero(meet != 0))",
     ["tests/test_measure.py::test_unit_table_reports_match_the_loops",
      "tests/test_cli.py::test_verify_unit_table_output_pinned"]),
    ("measure.py",
     "    if (sigma == 1.0).all():  # no nested pair",
     "    if False:  # no nested pair",
     ["tests/test_measure.py::test_unit_table_monotonicity_compares_no_values"]),
    # a measure document's sigma: NaN let through, an integer past the
    # float range let overflow
    ("measure.py",
     "or sigma != sigma:",
     "or False:",
     ["tests/test_measure.py::test_measure_from_dict_rejects_nan_and_non_numbers"]),
    ("measure.py",
     "except OverflowError:  # an int past the float range",
     "except ZeroDivisionError:",
     ["tests/test_measure.py::test_measure_from_dict_rejects_an_integer_past_the_float_range",
      "tests/test_cli.py::test_verify_measure_with_an_integer_past_the_float_range_exits_2"]),
    # the extensions: subsets taken for supersets
    ("measure.py",
     "fam[(fam | a.mask) == a.mask]",
     "fam[(fam & a.mask) == a.mask]",
     [_EXTENSIONS]),
    # a NaN slice time, and the CLI's tolerance as a second literal
    ("minkowski.py",
     "if math.isnan(t):",
     "if False:",
     ["tests/test_minkowski.py::test_horizon_slices_reject_a_nan_time"]),
    ("cli.py",
     "default=EQUALITY_RTOL)",
     "default=1e-9)",
     ["tests/test_cli.py::test_verify_tolerance_defaults_to_the_library_tolerance"]),
    # public names: one declared twice, one not declared
    ("measure.py",
     '    "CausalMeasure",\n',
     '    "CausalMeasure",\n    "Kind",\n',
     ["tests/test_source.py::test_public_names_declared_once"]),
    ("errors.py",
     '    "MissingValue",\n',
     "",
     [_MISSING]),
]


def _passes(src: Path, tests: list[str]) -> bool:
    """Whether ``tests`` pass with the package imported from ``src``.  No
    bytecode is written, so each run compiles the copy as it stands."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *tests]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    start = time.perf_counter()
    outcome: dict[str, list[str]] = {"killed": [], "survivors": [], "stale": []}
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if not _passes(src, sorted({t for *_, tests in MUTANTS for t in tests})):
            print("the named tests fail on the unmutated source")
            return 2
        for name, old, new, tests in MUTANTS:
            path = src / "causalorder" / name
            text = path.read_text()
            label = f"{name}: {old.strip()!r} -> {new.strip()!r}"
            if text.count(old) != 1:
                outcome["stale"].append(label)
                continue
            path.write_text(text.replace(old, new))
            try:
                outcome["survivors" if _passes(src, tests) else "killed"].append(label)
            finally:
                path.write_text(text)
    for title, labels in outcome.items():
        print(f"{title} ({len(labels)}):")
        for label in labels:
            print("  " + label)
    print(f"wall time: {time.perf_counter() - start:.1f} s")
    return 1 if outcome["survivors"] or outcome["stale"] else 0


if __name__ == "__main__":
    sys.exit(main())
