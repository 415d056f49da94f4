"""File format grammars, validation errors and canonical round trips."""

import re
import sys
from random import Random

import pytest

from csdd import formats
from csdd.circuit import Vtree, enumerate_models, model_count
from csdd.fixtures import squares_dataset, squares_vtree
from csdd.formats import ParseError, _loads_circuit
from csdd.learn import Dataset, bayes_estimate, collect_counts, idm_estimate
from csdd.params import ParamError, PsddParams

from conftest import (
    loads_reference,
    random_circuit,
    random_csdd_params,
    random_psdd_params,
    random_vtree,
)


class TestVtreeFormat:
    def test_squares_shape(self):
        text = formats.dumps_vtree(squares_vtree())
        lines = text.strip().splitlines()
        assert lines[0] == "vtree 7"
        assert sum(1 for l in lines if l.startswith("L ")) == 4
        assert sum(1 for l in lines if l.startswith("I ")) == 3

    def test_single_variable(self):
        text = formats.dumps_vtree(Vtree(1))
        assert text == "vtree 1\nL 0 1\n"

    def test_round_trip_structure_and_bytes(self):
        rng = Random(12)
        for _ in range(25):
            vt = random_vtree(rng, rng.randint(1, 14))
            text = formats.dumps_vtree(vt)
            back = formats.loads_vtree(text)
            assert back == vt
            assert formats.dumps_vtree(back) == text

    def test_deep_right_linear_round_trip(self, tmp_path):
        # 5,000 levels: far deeper than the default recursion limit
        assert sys.getrecursionlimit() < 5000
        vt = Vtree.right_linear(5000)
        assert vt == Vtree(vt.structure()) and hash(vt) == hash(Vtree.right_linear(5000))
        path = tmp_path / "deep.vtree"
        formats.write_vtree(vt, path)
        back = formats.read_vtree(path)
        assert back == vt and hash(back) == hash(vt)
        assert formats.dumps_vtree(back).encode("utf-8") == path.read_bytes()

    def test_comments_ignored(self):
        text = "c banner\nvtree 3\nL 0 1\nL 2 2\nI 1 0 2\nc trailing\n"
        assert formats.loads_vtree(text) == Vtree((1, 2))

    def test_errors_carry_line_numbers(self):
        cases = [
            ("vtree 2\nL 0 1\nI 1 0 9\n", 3),     # dangling child
            ("vtree 2\nL 0 1\nL 0 2\n", 3),       # duplicate id
            ("vtree 1\nL zero 1\n", 2),           # malformed id
            ("L 0 1\n", 1),                       # missing header
        ]
        for text, line in cases:
            with pytest.raises(ParseError) as err:
                formats.loads_vtree(text)
            assert err.value.line == line

    @pytest.mark.parametrize("text, line, message", [
        # a count that does not match names the header, not the first line
        ("c a\nc b\nvtree 4\nL 0 1\nL 2 2\nI 1 0 2\n", 3, "header declares 4 nodes, found 3"),
        # a variable given twice names its second leaf
        ("c a\nvtree 3\nL 0 1\nL 2 1\nI 1 0 2\n", 4, "variable 1 appears twice in the vtree"),
        # a forest names its second root in file order
        ("vtree 4\nL 0 1\nL 2 2\nI 1 0 2\nL 3 3\n", 5, "expected a single root, found 2"),
        ("c a\nvtree 3\nL 0 1\nL 1 2\nL 2 3\n", 4, "expected a single root, found 3"),
        # a variable outside 1..n names its leaf
        ("vtree 3\nL 0 1\nL 2 3\nI 1 0 2\n", 3, "vtree variables must be exactly 1..2, got 3"),
        ("vtree 3\nL 0 0\nL 2 1\nI 1 0 2\n", 2, "vtree variables must be exactly 1..2, got 0"),
        # only "\n" ends a line: a form feed stays inside its comment
        ("c made by hand\x0cv2\nvtree 4\nL 0 1\nL 2 2\nI 1 0 2\n", 2, "header declares 4 nodes, found 3"),
    ])
    def test_whole_file_checks_name_their_line(self, text, line, message):
        with pytest.raises(ParseError) as err:
            formats.loads_vtree(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    def test_ids_other_than_in_order_positions_refused(self):
        # ((1, 2), 3) numbered in file order: loading it would hand back other
        # ids, and an sdd written against the file's ids would then be refused
        with pytest.raises(ParseError, match="in-order position 0") as err:
            formats.loads_vtree("vtree 5\nL 3 1\nL 4 2\nI 0 3 4\nL 1 3\nI 2 0 1\n")
        assert err.value.line == 2
        # leaves at their positions, internal ids swapped: the first I line is named
        with pytest.raises(ParseError, match="in-order position 1") as err:
            formats.loads_vtree("vtree 5\nL 0 1\nL 2 2\nI 3 0 2\nL 4 3\nI 1 3 4\n")
        assert err.value.line == 4
        text = "vtree 5\nL 0 1\nL 2 2\nI 1 0 2\nL 4 3\nI 3 1 4\n"
        assert formats.dumps_vtree(formats.loads_vtree(text)) == text


class TestSddFormat:
    def test_squares_round_trip_preserves_models(self, squares):
        vt = squares.circuit.vtree
        text = formats.dumps_sdd(squares.circuit)
        back = formats.loads_sdd(text, vt)
        assert enumerate_models(back, back.root) == enumerate_models(
            squares.circuit, squares.root
        )
        assert formats.dumps_sdd(back) == text

    def test_empty_decision_rejected(self):
        text = "sdd 3\nL 0 0 1\nL 1 2 2\nD 2 1 0\n"
        with pytest.raises(ParseError):
            formats.loads_sdd(text, Vtree((1, 2)))

    def test_literal_outside_vtree_rejected(self):
        text = "sdd 1\nL 0 0 7\n"
        with pytest.raises(ParseError):
            formats.loads_sdd(text, Vtree((1, 2)))

    def test_forward_reference_rejected(self):
        text = "sdd 3\nL 0 0 1\nD 2 1 1 0 1\nL 1 2 2\n"
        with pytest.raises(ParseError) as err:
            formats.loads_sdd(text, Vtree((1, 2)))
        assert "forward" in str(err.value)

    def test_prime_normalized_for_the_wrong_vtree_node_rejected(self):
        # the prime is x2, which lives at the right leaf of Vtree((1, 2))
        text = "sdd 3\nL 0 2 2\nL 1 0 1\nD 2 1 1 0 1\n"
        with pytest.raises(ParseError, match="not normalized") as err:
            formats.loads_sdd(text, Vtree((1, 2)))
        assert err.value.line == 4

    def test_partition_violation_rejected(self):
        # both primes are the same literal: x1 true covers twice, false never
        text = "sdd 5\nL 0 0 1\nL 1 2 2\nL 2 0 1\nL 3 2 -2\nD 4 1 2 0 1 2 3\n"
        with pytest.raises(ParseError):
            formats.loads_sdd(text, Vtree((1, 2)))

    @pytest.mark.parametrize("line", ["T 0", "F 0"])
    def test_one_variable_bare_constant_round_trips(self, line):
        # with one variable the constant's leaf is the vtree's root, known at its line
        text = f"sdd 1\n{line}\n"
        circuit = formats.loads_sdd(text, Vtree(1))
        assert (circuit.nodes[0].vtree, circuit.nodes[0].var) == (0, 1)
        assert model_count(circuit) == (2 if line == "T 0" else 0)
        assert formats.dumps_sdd(circuit) == text

    def test_random_round_trips(self):
        rng = Random(34)
        for _ in range(20):
            circuit = random_circuit(rng, rng.randint(3, 6), singly=bool(rng.getrandbits(1)))
            text = formats.dumps_sdd(circuit)
            back = formats.loads_sdd(text, circuit.vtree)
            assert formats.dumps_sdd(back) == text
            assert model_count(back) == model_count(circuit)


class TestParameterFormats:
    def test_interval_table_round_trips_exactly(self, squares, squares_idm):
        text = formats.dumps_csdd(squares.circuit, squares_idm)
        back_circuit, back_params = formats.loads_csdd(text, squares.circuit.vtree)
        assert formats.dumps_csdd(back_circuit, back_params) == text
        # the learned endpoints survive the decimal round trip bit-for-bit
        root_cs = back_params.table[back_circuit.root]
        assert root_cs.lower == (31 / 101, 52 / 101, 17 / 101)
        assert root_cs.upper == (32 / 101, 53 / 101, 18 / 101)

    def test_point_table_round_trips(self, squares, squares_counts):
        params = bayes_estimate(squares.circuit, squares_counts, 1.0)
        text = formats.dumps_psdd(squares.circuit, params)
        back_circuit, back_params = formats.loads_psdd(text, squares.circuit.vtree)
        assert formats.dumps_psdd(back_circuit, back_params) == text

    def test_unnormalized_point_table_rejected(self, squares, squares_counts):
        params = bayes_estimate(squares.circuit, squares_counts, 1.0)
        text = formats.dumps_psdd(squares.circuit, params)
        broken = text.replace(formats._fmt(params.table[squares.root][0]),
                              formats._fmt(params.table[squares.root][0] - 0.02), 1)
        with pytest.raises(ParseError):
            formats.loads_psdd(broken, squares.circuit.vtree)

    def test_inverted_interval_rejected(self, squares, squares_idm):
        text = formats.dumps_csdd(squares.circuit, squares_idm)
        cs = squares_idm.table[squares.root]
        target = f"{formats._fmt(cs.lower[0])} {formats._fmt(cs.upper[0])}"
        broken = text.replace(target, f"{formats._fmt(cs.upper[0])} {formats._fmt(cs.lower[0])}", 1)
        with pytest.raises(ParseError):
            formats.loads_csdd(broken, squares.circuit.vtree)

    def test_nonzero_on_false_sub_rejected(self, squares, squares_idm):
        text = formats.dumps_csdd(squares.circuit, squares_idm)
        # the left-white prime line carries a [0,0] slot for its false sub
        broken = text.replace("1.0 1.0 2 3 0.0 0.0", "1.0 1.0 2 3 0.1 0.1")
        assert broken != text
        with pytest.raises(ParseError):
            formats.loads_csdd(broken, squares.circuit.vtree)

    @pytest.mark.parametrize("number", ["nan", "inf", "-inf"])
    def test_nonfinite_point_parameter_rejected(self, squares, squares_counts, number):
        params = bayes_estimate(squares.circuit, squares_counts, 1.0)
        text = formats.dumps_psdd(squares.circuit, params)
        lines = text.splitlines()
        toks = lines[-1].split()  # the root: D <id> <vtree> <k> <p> <s> <theta> ...
        toks[6] = number
        broken = "\n".join(lines[:-1] + [" ".join(toks)]) + "\n"
        with pytest.raises(ParseError, match="not finite") as err:
            formats.loads_psdd(broken, squares.circuit.vtree)
        assert err.value.line == len(lines)

    def test_point_parameters_too_large_to_sum_rejected(self, squares, squares_counts):
        params = bayes_estimate(squares.circuit, squares_counts, 1.0)
        text = formats.dumps_psdd(squares.circuit, params)
        lines = text.splitlines()
        toks = lines[-1].split()
        toks[6] = toks[9] = "1e308"
        broken = "\n".join(lines[:-1] + [" ".join(toks)]) + "\n"
        with pytest.raises(ParseError, match="sum to inf") as err:
            formats.loads_psdd(broken, squares.circuit.vtree)
        assert err.value.line == len(lines)

    def test_point_table_too_large_to_sum_refused_before_writing(self, squares, squares_ml):
        # the writer and the loader refuse it alike, not with an OverflowError
        table = dict(squares_ml.table)
        table[squares.root] = (1e308, 1e308, 0.0)
        with pytest.raises(ParamError, match="sum to inf"):
            PsddParams(table).validate(squares.circuit)
        with pytest.raises(ParamError, match="sum to inf"):
            formats.dumps_psdd(squares.circuit, PsddParams(table))

    @pytest.mark.parametrize("mode, numbers, match", [
        ("psdd", ["1.5"], "negative probability"),
        ("csdd", ["0.6", "0.4"], "invalid interval"),
    ])
    def test_bad_true_line_names_the_line(self, squares, squares_counts, mode, numbers, match):
        estimate, dumps, loads = {
            "psdd": (bayes_estimate, formats.dumps_psdd, formats.loads_psdd),
            "csdd": (idm_estimate, formats.dumps_csdd, formats.loads_csdd),
        }[mode]
        lines = dumps(squares.circuit, estimate(squares.circuit, squares_counts, 1.0)).splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("T "))
        toks = lines[lineno - 1].split()  # T <id> <vtree> <var> <numbers>
        lines[lineno - 1] = " ".join(toks[:4] + numbers)
        with pytest.raises(ParseError, match=match) as err:
            loads("\n".join(lines) + "\n", squares.circuit.vtree)
        assert err.value.line == lineno

    def test_nonfinite_interval_rejected(self, squares, squares_idm):
        text = formats.dumps_csdd(squares.circuit, squares_idm)
        lines = text.splitlines()
        toks = lines[-1].split()  # D <id> <vtree> <k> <p> <s> <lower> <upper> ...
        toks[7] = "nan"
        broken = "\n".join(lines[:-1] + [" ".join(toks)]) + "\n"
        with pytest.raises(ParseError, match="not finite"):
            formats.loads_csdd(broken, squares.circuit.vtree)

    def test_nonzero_on_false_sub_names_the_line(self, squares, squares_idm):
        text = formats.dumps_csdd(squares.circuit, squares_idm)
        broken = text.replace("1.0 1.0 2 3 0.0 0.0", "1.0 1.0 2 3 0.0 0.25")
        assert broken != text
        lineno = next(i for i, line in enumerate(broken.splitlines(), 1) if "0.0 0.25" in line)
        with pytest.raises(ParseError, match="false sub") as err:
            formats.loads_csdd(broken, squares.circuit.vtree)
        assert err.value.line == lineno

    def test_random_round_trips(self):
        rng = Random(56)
        for _ in range(15):
            circuit = random_circuit(rng, rng.randint(3, 5), singly=bool(rng.getrandbits(1)))
            cparams = random_csdd_params(rng, circuit, 0.3)
            text = formats.dumps_csdd(circuit, cparams)
            back_c, back_p = formats.loads_csdd(text, circuit.vtree)
            assert formats.dumps_csdd(back_c, back_p) == text
            pparams = random_psdd_params(rng, circuit)
            text = formats.dumps_psdd(circuit, pparams)
            back_c, back_p = formats.loads_psdd(text, circuit.vtree)
            assert formats.dumps_psdd(back_c, back_p) == text


class TestLoaderFaults:
    # each of these ended in an untyped error or was accepted before the one-pass loader
    @pytest.mark.parametrize("line", ["F", "L", "D"])
    def test_node_line_without_an_id_names_the_line(self, line):
        with pytest.raises(ParseError, match="has no id") as err:
            formats.loads_sdd(f"sdd 2\nL 0 0 1\n{line}\n", Vtree((1, 2)))
        assert err.value.line == 3

    @pytest.mark.parametrize("sep", ["\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_only_newlines_end_lines(self, sep):
        # str.splitlines also breaks at these; a comment keeps them, and CRLF still reads
        text = f"c made by hand{sep}v2\r\nsdd 2\r\nL 0 0 1\r\nD\r\n"
        with pytest.raises(ParseError, match="has no id") as err:
            formats.loads_sdd(text, Vtree((1, 2)))
        assert err.value.line == 4

    def test_file_without_nodes_rejected(self):
        with pytest.raises(ParseError, match="at least one node"):
            formats.loads_sdd("sdd 0\n", Vtree((1, 2)))

    def test_repeated_decision_node_right_after_itself_rejected(self):
        node = "1 2 0 1 2 3"  # vtree 1, elements x1 -> x2 and -x1 -> -x2
        text = f"sdd 6\nL 0 0 1\nL 1 2 2\nL 2 0 -1\nL 3 2 -2\nD 4 {node}\nD 5 {node}\n"
        with pytest.raises(ParseError, match="duplicate decision node") as err:
            formats.loads_sdd(text, Vtree((1, 2)))
        assert err.value.line == 7

    @pytest.mark.parametrize("mode", ["sdd", "psdd", "csdd"])
    def test_leading_comments_ignored(self, squares, squares_counts, mode):
        dumps, loads = getattr(formats, f"dumps_{mode}"), getattr(formats, f"loads_{mode}")
        args = {"sdd": (), "psdd": (bayes_estimate(squares.circuit, squares_counts, 1.0),),
                "csdd": (idm_estimate(squares.circuit, squares_counts, 1.0),)}[mode]
        text = dumps(squares.circuit, *args)
        loaded = loads("c written by hand\nc\n\n" + text, squares.circuit.vtree)
        assert dumps(*(loaded if mode != "sdd" else (loaded,))) == text


def _loader_corpus():
    """(mode, text, vtree): the squares model in each format, then seeded
    random compiled circuits, singly connected (tree copies) and shared."""
    from csdd.fixtures import squares_fixture

    squares = squares_fixture().circuit
    counts = collect_counts(squares, squares_dataset())
    yield "sdd", formats.dumps_sdd(squares), squares.vtree
    yield "psdd", formats.dumps_psdd(squares, bayes_estimate(squares, counts, 1.0)), squares.vtree
    yield "csdd", formats.dumps_csdd(squares, idm_estimate(squares, counts, 1.0)), squares.vtree
    rng = Random(78)
    for singly in (True, False, True, False):
        circuit = random_circuit(rng, rng.randint(3, 5), singly=singly)
        yield "sdd", formats.dumps_sdd(circuit), circuit.vtree
        yield "psdd", formats.dumps_psdd(circuit, random_psdd_params(rng, circuit)), circuit.vtree
        yield "csdd", formats.dumps_csdd(circuit, random_csdd_params(rng, circuit, 0.3)), circuit.vtree


def _corruptions(text: str):
    """Every single-token replacement from a fixed set, then each line deleted
    and each line duplicated."""
    lines = text.splitlines()
    ids = [line.split()[1] for line in lines[1:]]
    for i, line in enumerate(lines):
        toks = line.split()
        later = ids[i] if i < len(ids) else str(len(ids))  # the next line's node id
        values = ["-1", "0", later, "nan", "inf", "1e308", "x", "-0.0", "1.5"]
        if toks[0] == "D":
            values.append(str(int(toks[3]) + 1))  # the element count + 1
        for j, tok in enumerate(toks):
            for value in values:
                if value != tok:
                    changed = " ".join(toks[:j] + [value] + toks[j + 1:])
                    yield "\n".join(lines[:i] + [changed] + lines[i + 1:]) + "\n"
        yield "\n".join(lines[:i] + lines[i + 1:]) + "\n"
        yield "\n".join(lines[:i + 1] + lines[i:]) + "\n"


def _outcome(load, text: str, vtree: Vtree, mode: str):
    """The canonical dump of what loads, or the line and message of the
    ParseError; any other exception propagates and fails the test."""
    try:
        loaded = load(text, vtree, mode)
    except ParseError as exc:
        return "refused", exc.line, str(exc)
    dumps = getattr(formats, f"dumps_{mode}")
    return "loaded", dumps(loaded) if mode == "sdd" else dumps(*loaded)


# A decision line made invalid by one token can also orphan a bare F/T it
# used, or pin it to the wrong leaf.  The reference, which pins every
# constant before building any node, reports the constant at its own earlier
# line; the one-pass loader reports the decision line's normalization fault.
_CONSTANT_FAULT = r"cannot infer the leaf of constant node|used under two different leaves"
_NORMALIZATION_FAULT = r"(prime|sub) \d+ not normalized for vtree node"


class TestLoaderParity:
    def test_corrupted_files_load_or_fail_as_the_reference_does(self):
        cases = reordered = 0
        for mode, text, vtree in _loader_corpus():
            assert _outcome(_loads_circuit, text, vtree, mode) == ("loaded", text)
            for broken in _corruptions(text):
                cases += 1
                got = _outcome(_loads_circuit, broken, vtree, mode)
                want = _outcome(loads_reference, broken, vtree, mode)
                if got != want:
                    assert got[0] == want[0] == "refused", (broken, got, want)
                    assert want[1] < got[1], (broken, got, want)
                    assert re.search(_CONSTANT_FAULT, want[2]), (broken, got, want)
                    assert re.search(_NORMALIZATION_FAULT, got[2]), (broken, got, want)
                    reordered += 1
        assert cases > 10_000 and reordered < cases // 100

    def test_psdd_read_onto_its_twin_gives_the_full_loaders_table_or_refuses(self):
        # read onto the circuit of the uncorrupted file, a corruption yields the
        # full loader's table or a ParseError; it yields the table whenever the
        # full loader builds that same circuit, and refuses whenever it refuses
        cases = matched = 0
        for mode, text, vtree in _loader_corpus():
            if mode != "psdd":
                continue
            twin, params = _loads_circuit(text, vtree, mode)
            assert _loads_circuit(text, vtree, mode, twin) == (twin, params)
            for broken in _corruptions(text):
                cases += 1
                try:
                    circuit, full = _loads_circuit(broken, vtree, mode)
                except ParseError:
                    circuit = full = None
                try:
                    onto = _loads_circuit(broken, vtree, mode, twin)
                except ParseError:
                    onto = None
                if circuit is not None and circuit.nodes == twin.nodes:
                    assert onto == (twin, full), broken
                    matched += 1
                else:
                    assert onto is None, broken
        assert cases > 1_000 and 0 < matched < cases


class TestReadOnto:
    """A psdd read onto a loaded circuit must describe it node for node."""

    @pytest.fixture()
    def loaded(self, squares, squares_ml):
        text = formats.dumps_psdd(squares.circuit, squares_ml)
        circuit, params = formats.loads_psdd(text, squares.circuit.vtree)
        return text, circuit, params

    @staticmethod
    def _refusal(lines, circuit):
        with pytest.raises(ParseError) as err:
            formats.loads_psdd("\n".join(lines) + "\n", circuit.vtree, onto=circuit)
        return str(err.value)

    def test_its_own_file_reads_onto_it(self, loaded):
        text, circuit, params = loaded
        assert formats.loads_psdd(text, circuit.vtree, onto=circuit) == (circuit, params)

    def test_terminal_at_another_leaf_or_of_another_sign_refused_at_its_line(self, loaded):
        # each edit keeps the line's own grammar: leaf and variable agree
        text, circuit, _ = loaded
        vtree, lines = circuit.vtree, text.splitlines()
        t = next(i for i, line in enumerate(lines) if line.startswith("T "))
        _, fid, _, var, theta = lines[t].split()
        other = 1 + int(var) % vtree.var_count
        moved = f"T {fid} {vtree.leaf_of(other)} {other} {theta}"
        lit = next(i for i, line in enumerate(lines) if line.startswith("L "))
        toks = lines[lit].split()
        flipped = " ".join(toks[:3] + [str(-int(toks[3]))])
        for i, line in ((t, moved), (lit, flipped)):
            broken = lines[:i] + [line] + lines[i + 1:]
            assert self._refusal(broken, circuit) == (
                f"line {i + 1}: node line does not match node {i - 1} of the circuit read onto"
            )

    def test_file_ending_below_the_root_refused(self, loaded):
        text, circuit, _ = loaded
        lines = text.splitlines()
        prefix = [f"psdd {len(lines) - 2}"] + lines[1:-1]
        assert self._refusal(prefix, circuit) == (
            f"line {len(lines) - 1}: the circuit read onto has its root at node {circuit.root}"
        )

    def test_lines_past_the_circuit_refused(self, loaded):
        text, circuit, _ = loaded
        lines = text.splitlines()
        n = len(circuit.nodes)
        longer = [f"psdd {n + 1}"] + lines[1:] + [f"L {n} {circuit.vtree.leaf_of(1)} 1"]
        assert self._refusal(longer, circuit) == (
            f"line {n + 2}: the circuit read onto has only {n} nodes"
        )

    def test_circuit_over_another_vtree_refused(self, loaded):
        text, circuit, _ = loaded
        other = Vtree.right_linear(circuit.vtree.var_count)
        assert other != circuit.vtree
        with pytest.raises(ValueError, match="another vtree"):
            formats.loads_psdd(text, other, onto=circuit)


class TestDatasetFormat:
    def test_squares_dataset_totals(self):
        text = formats.dumps_dataset(squares_dataset())
        back = formats.loads_dataset(text)
        assert back.total == 100
        assert formats.dumps_dataset(back) == text

    def test_header_only_is_empty(self):
        ds = formats.loads_dataset("X1,X2\n")
        assert ds.variables == ("X1", "X2") and ds.rows == []

    def test_non_binary_cell_rejected(self):
        with pytest.raises(ParseError) as err:
            formats.loads_dataset("X1,X2\n0,2\n")
        assert err.value.line == 2

    def test_only_newlines_end_rows(self):
        # a form feed ends no row, so the bad cell is on line 3, not 4
        with pytest.raises(ParseError) as err:
            formats.loads_dataset("X1,X2\r\n0,1\x0c\r\n1,2\r\n")
        assert err.value.line == 3

    def test_bad_count_rejected(self):
        with pytest.raises(ParseError):
            formats.loads_dataset("X1,count\n1,0\n")

    def test_missing_column_rejected(self):
        with pytest.raises(ParseError):
            formats.loads_dataset("X1,X2\n1\n")

    def test_duplicated_rows_equal_counted_rows(self, squares):
        counted = Dataset(("X1", "X2", "X3", "X4"), [((False, False, False, True), 3)])
        repeated = Dataset(
            ("X1", "X2", "X3", "X4"), [((False, False, False, True), 1)] * 3
        )
        a = collect_counts(squares.circuit, counted)
        b = collect_counts(squares.circuit, repeated)
        assert a.counts == b.counts and a.totals == b.totals

    def test_rows_without_count_column(self):
        ds = formats.loads_dataset("A,B\n0,1\n1,1\n")
        assert ds.total == 2


class TestRefusals:
    """Every grammar fault of the vtree, circuit and dataset readers is
    refused at its line with its own message."""

    @pytest.mark.parametrize("reader, text, line, message", [
        ("vtree", "vtree 1\nvtree 1\nL 0 1\n", 2, "duplicate vtree header"),
        ("vtree", "vtree\n", 1, "header is 'vtree <count>'"),
        ("vtree", "vtree 1 2\n", 1, "header is 'vtree <count>'"),
        ("vtree", "vtree 1\nL 0\n", 2, "leaf line is 'L <id> <var>'"),
        ("vtree", "vtree 3\nL 0 1\nL 2 2\nI 1 0\n", 4, "internal line is 'I <id> <left> <right>'"),
        ("vtree", "I 1 0 2\nvtree 3\n", 1, "missing 'vtree <count>' header"),
        ("vtree", "vtree 3\nL 0 1\nL 2 2\nI 0 0 2\n", 4, "duplicate vtree node id 0"),
        ("vtree", "vtree 5\nL 0 1\nL 2 2\nI 1 0 2\nI 3 0 2\n", 5, "node 0 already has a parent"),
        ("vtree", "vtree 1\nX 0 1\n", 2, "unknown vtree line 'X'"),
        ("vtree", "", 1, "missing 'vtree <count>' header"),
        ("vtree", "c only a comment\n", 1, "missing 'vtree <count>' header"),
        ("sdd", "sdd\n", 1, "header is 'sdd <count>'"),
        ("sdd", "sdd 1\nL 0 0\n", 2, "literal line is 'L <id> <vtree> <literal>'"),
        ("sdd", "sdd 1\nF 0 1\n", 2, "false line is 'F <id>'"),
        ("sdd", "sdd 1\nT 0 1\n", 2, "true line is 'T <id>'"),
        ("psdd", "psdd 1\nT 0 0 1\n", 2, "true line has 5 fields in a psdd file"),
        ("csdd", "csdd 1\nT 0 0 1 0.5\n", 2, "true line has 6 fields in a csdd file"),
        ("sdd", "sdd 2\nL 0 0 1\nD 1 1\n", 3, "decision line is 'D <id> <vtree> <k> ...'"),
        ("sdd", "", 1, "missing 'sdd <count>' header"),
        ("csdd", "c only a comment\n", 1, "missing 'csdd <count>' header"),
        ("dataset", "", 1, "missing header row"),
        ("dataset", "count\n", 1, "no variable columns"),
        ("dataset", "X1,X1\n", 1, "duplicate variable names"),
    ])
    def test_fault_is_refused_at_its_line(self, reader, text, line, message):
        loads = getattr(formats, f"loads_{reader}")
        args = (text,) if reader in ("vtree", "dataset") else (text, Vtree((1, 2)))
        with pytest.raises(ParseError) as err:
            loads(*args)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"
