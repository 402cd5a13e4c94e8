import decimal
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import aztec_tilings
from aztec_tilings import regions
from aztec_tilings.engines import BRUTE_VERTEX_LIMIT
from aztec_tilings.grids import EmbeddedGraph

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, stdin=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "aztec_tilings", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
        timeout=timeout,
    )


def test_public_names_resolve():
    names = aztec_tilings.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(aztec_tilings, name), name


def test_gen_diamond_order_8():
    proc = run_cli("gen", "ad", "--n", "8")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert len(data["cells"]) == 144


def test_render_pinwheel_ascii():
    proc = run_cli("render", "--family", "r", "--n", "3", "--format", "ascii")
    assert proc.returncode == 0
    assert proc.stdout == ".##\n###\n..#\n"


@pytest.mark.parametrize("args", [("bench",), ("gen", "r", "--n", "3", "--ascii")])
def test_retired_commands_exit_2_with_usage(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: aztec-tilings")


def test_gen_holey_rectangle():
    proc = run_cli("gen", "ar_holey", "--m", "3", "--n", "5", "--keep", "1,3,5")
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["vertices"]) == 36


def test_count_family_shorthands():
    assert run_cli("count", "--family", "r", "--n", "8").stdout.strip() == "80"
    assert run_cli("count", "--family", "ad", "--n", "4", "--engine", "fkt").stdout.strip() == "1024"
    assert run_cli("count", "--family", "kna", "--n", "6").stdout.strip() == "6"


def test_count_graph_family():
    proc = run_cli("count", "--family", "ar_holey", "--m", "3", "--n", "5", "--keep", "1,3,5")
    assert proc.stdout.strip() == "512"


def test_count_from_stdin():
    gen = run_cli("gen", "ar", "--m", "1", "--n", "1")
    proc = run_cli("count", "--input", "-", "--engine", "brute", stdin=gen.stdout)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


def test_count_region_file(tmp_path):
    gen = run_cli("gen", "kna", "--n", "4")
    path = tmp_path / "region.json"
    path.write_text(gen.stdout)
    proc = run_cli("count", "--input", str(path), "--crosscheck")
    assert proc.stdout.strip() == "6"


def test_invalid_input_exits_2():
    assert run_cli("count", "--family", "ad", "--n", "0").returncode == 2
    assert run_cli("gen", "ar_bar", "--m", "1", "--n", "1", "--remove", "1,2").returncode == 2
    assert run_cli("count").returncode == 2


@pytest.mark.parametrize("positions", ["1,,3", ",2,3", "1,3,"])
@pytest.mark.parametrize("family,option", [("ar_holey", "--keep"), ("ar_bar", "--remove")])
def test_an_empty_position_item_exits_2(positions, family, option):
    proc = run_cli("count", "--family", family, "--m", "2", "--n", "4", option, positions)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"expected comma-separated integers, got {positions!r}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args,unread",
    [
        (("count", "--input", "{f}", "--family", "ad", "--n", "3"), "--family, --n"),
        (("count", "--input", "{f}", "--n", "3"), "--n"),
        (("count", "--input", "", "--family", "ad", "--n", "3"), "--family, --n"),
        (("render", "--input", "{f}", "--keep", "1"), "--keep"),
        (("count", "--family", "ar", "--m", "2", "--n", "3", "--keep", "1,2"), "--keep"),
        (("count", "--family", "ad", "--n", "3", "--m", "2"), "--m"),
        (("render", "--family", "kna", "--n", "3", "--remove", "1"), "--remove"),
        (("gen", "ka", "--n", "3", "--m", "1", "--keep", "1"), "--m, --keep"),
        (("count", "--family", "ar_holey", "--m", "2", "--n", "3", "--keep", "1,2",
          "--remove", "1"), "--remove"),
        (("gen", "ar_bar", "--m", "2", "--n", "3", "--remove", "1,2", "--keep", "1"), "--keep"),
    ],
)
def test_an_option_the_input_or_family_does_not_read_exits_2(args, unread, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"cells": []}')
    proc = run_cli(*(str(path) if a == "{f}" else a for a in args))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip().endswith(f"does not read {unread}")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ("count", "render"))
def test_deeply_nested_json_input_exits_2_without_a_traceback(command):
    # json.load raises RecursionError, not ValueError, past the interpreter's recursion limit
    proc = run_cli(command, "--input", "-", stdin="[" * 100_000 + "]" * 100_000)
    assert proc.returncode == 2
    assert proc.stderr.startswith("cannot read region/graph JSON from -:")
    assert "Traceback" not in proc.stderr


def test_a_closed_stdout_exits_neither_0_nor_1_and_prints_no_traceback():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    # ad(100) is 174,557 bytes, more than a pipe buffers, so the writer meets the closed end
    proc = subprocess.Popen([sys.executable, "-m", "aztec_tilings", "gen", "ad", "--n", "100"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(10) == b'{"cells":['
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) not in (0, 1)
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "payload,extra",
    [
        ({"vertices": [[0, 0], [0, 1]], "edges": [[0, 5]]}, ()),
        ({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "edges": [[-1, 0], [0, 1]]}, ()),
        # non-integer and boolean coordinates, once truncated or read as 1
        ({"vertices": [[0, 0], [1.9, 0]], "edges": [[0, 1]]}, ()),
        ({"cells": [[0, 0], [0.6, 0]]}, ()),
        ({"vertices": [[0, 0], [True, 0]], "edges": [[0, 1]]}, ()),
        ({"cells": [[0, 0], [0, True]]}, ()),
        ({"vertices": [[0, 0], [1, 0]], "edges": [[0, True]]}, ()),
        # duplicates, once merged
        ({"vertices": [[0, 0], [0, 0], [1, 0]], "edges": [[0, 2]]}, ()),
        ({"cells": [[0, 0], [0, 0], [1, 0]]}, ()),
        ({"vertices": [[0, 0], [1, 0]], "edges": [[0, 1], [0, 1]]}, ()),
        # edges that are not unit steps: a diagonal, and a step of length 2
        ({"vertices": [[0, 0], [1, 1]], "edges": [[0, 1]]}, ()),
        ({"vertices": [[0, 0], [2, 0]], "edges": [[0, 1]]}, ()),
    ],
)
def test_bad_graph_input_exits_2(payload, extra):
    proc = run_cli("count", "--input", "-", *extra, stdin=json.dumps(payload))
    assert proc.returncode == 2
    assert proc.stderr.strip()
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "document,field",
    [
        ('{"cells": ""}', "cell list"),
        ('{"cells": {}}', "cell list"),
        ('{"vertices": "", "edges": {}}', "vertex list"),
        ('{"vertices": [[0, 0], [0, 1]], "edges": {}}', "edge list"),
        ('{"vertices": [[0, 0]]}', "JSON object with the field 'edges'"),
        ('{"edges": []}', "JSON object with the field 'vertices'"),
        ("[1, 2]", "JSON object with the field 'vertices'"),
        ('"x"', "JSON object with the field 'vertices'"),
        ("null", "JSON object with the field 'vertices'"),
        ("5", "JSON object with the field 'vertices'"),
    ],
    ids=["cells_string", "cells_object", "vertices_string", "edges_object",
         "no_edges", "no_vertices", "list", "string", "null", "number"],
)
def test_a_container_that_is_not_a_list_exits_2_naming_its_field(document, field):
    # the first four were once read as an empty list, and counted 1 (or 0 for the
    # edgeless pair); the rest once printed a bare KeyError or TypeError text
    proc = run_cli("count", "--input", "-", stdin=document)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("cannot read region/graph JSON from -:")
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_count_past_4300_digits_prints_exactly():
    # 15,000 disjoint 4-cycles: 2^15000 matchings, a 4,516-digit count
    vertices = [[3 * i + dx, dy] for i in range(15000) for dx, dy in ((0, 0), (0, 1), (1, 0), (1, 1))]
    edges = [[4 * i + a, 4 * i + b] for i in range(15000) for a, b in ((0, 1), (0, 2), (1, 3), (2, 3))]
    proc = run_cli("count", "--input", "-", stdin=json.dumps({"vertices": vertices, "edges": edges}))
    assert proc.returncode == 0, proc.stderr
    # decimal's str has no digit limit, unlike str of an int
    assert proc.stdout == f"{decimal.Context(prec=5000).power(2, 15000)}\n"


@pytest.mark.parametrize(
    "args",
    [
        ("count", "--family", "ad"),
        ("gen", "kna"),
        ("gen", "ar", "--m", "1"),
        ("render", "--family", "r"),
    ],
)
def test_order_past_the_limit_exits_2_before_building(args):
    t0 = time.monotonic()
    proc = run_cli(*args, "--n", str(regions.MAX_ORDER + 1))
    assert time.monotonic() - t0 < 1.0
    assert proc.returncode == 2
    assert str(regions.MAX_ORDER) in proc.stderr
    assert "Traceback" not in proc.stderr


# SHA-256 of `gen` output, pinned so that the JSON a family emits stays byte for byte the same.
GEN_DIGESTS = [
    (("ar", "--m", "4", "--n", "7"),
     "aadcb86941bbb3b484434e388b228c8acb5cafa3617fdd645bacc4b69d7f7ba9"),
    (("ar_holey", "--m", "3", "--n", "6", "--keep", "1,4,6"),
     "f326214540b2d4259ad5f0bcc06e4b3274ca54e722d6689f5d6a793a068bb05e"),
    (("ar_bar", "--m", "2", "--n", "5", "--remove", "1,4"),
     "de5afae2212d3169e9c296b98341f0bff3d0bee11c95843b34d176db20403a87"),
    (("ka", "--n", "10"),
     "4a7247ba1cb773db2c6f51e0716b9f7c59940b7fce07f8b567238565a684b360"),
    (("r", "--n", "10"),
     "974f10518dc709a171c7a782ffd40d3e5cb1755353d4095a79fec1ff04465456"),
    (("kna", "--n", "10"),
     "b6023041de9b8b1bf8a057dbe862f2033b73cc166da1150dff004c299be4d359"),
    (("ad", "--n", "6"),
     "1b9820e429f78cb482741d2680c4640997b1a0d80aeafe305c512337c4315d71"),
]


@pytest.mark.parametrize("args,digest", GEN_DIGESTS, ids=[a[0] for a, _ in GEN_DIGESTS])
def test_gen_output_bytes_are_pinned(args, digest):
    proc = run_cli("gen", *args)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_count_region_with_holes_crosschecks():
    # 46 cells and two holes: past BRUTE_VERTEX_LIMIT, so the sweep rechecks the determinant
    cells = [[i, j] for i in range(6) for j in range(8) if (i, j) not in ((1, 1), (3, 4))]
    assert len(cells) > BRUTE_VERTEX_LIMIT
    proc = run_cli("count", "--input", "-", "--crosscheck", stdin=json.dumps({"cells": cells}))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "15627"


def test_count_crosscheck_skips_the_empty_columns_before_a_far_domino():
    # a 6x7 grid and a domino 10^9 columns away: the sweep rechecks fkt over 44 points,
    # past BRUTE_VERTEX_LIMIT
    points = [(x, y) for x in range(7) for y in range(6)] + [(10**9, 0), (10**9 + 1, 0)]
    assert len(points) > BRUTE_VERTEX_LIMIT
    graph = json.dumps(EmbeddedGraph.from_points(points).to_json_dict())
    proc = run_cli("count", "--input", "-", "--crosscheck", stdin=graph, timeout=10)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "31529"


def test_count_crosscheck_past_the_sweep_budget_exits_2_naming_both_engines():
    # fkt counts ad(12) at once; its only recheck, the sweep, gives up at 2^18 live states
    proc = run_cli("count", "--family", "ad", "--n", "12", "--crosscheck", timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("crosscheck: profile_dp cannot recheck the fkt count: ")
    assert "Traceback" not in proc.stderr


def test_verify_suite_exit_code_and_format():
    proc = run_cli("verify", "lemma2", "--max-n", "2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["suite"] == "lemma2"
    assert payload["ok"] is True

    pretty = run_cli("verify", "lemma6", "--max-n", "5", "--format", "pretty")
    assert pretty.returncode == 0
    assert "suite lemma6" in pretty.stdout

    csv = run_cli("verify", "lemma6", "--max-n", "5", "--format", "csv")
    assert csv.stdout.splitlines()[0] == "suite,case,expected,actual,ok"


def test_verify_rejects_max_n_for_a_suite_without_it():
    proc = run_cli("verify", "lemma4", "--max-n", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "max_n" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args,message",
    [
        (("theorem1", "--max-order", "0"), "max_order"),
        (("all", "--max-order", "0"), "max_order"),
        (("theorem1", "--max-order", "301"), "max_order"),  # MAX_ORDER + 1
        (("lemma2", "--max-n", "-1"), "max_n"),
        (("lemma4", "--max-order", "20"), "max_order"),
        (("all", "--max-n", "3"), "max_n"),
        (("lemma2", "--max-n", "75"), "max_n"),  # eq14 would build order 4*75 + 3
        (("lemma6", "--max-n", "301"), "max_n"),
        (("lemma6", "--max-n", "0"), "max_n"),
    ],
)
def test_verify_rejects_a_bound_with_no_cases(args, message):
    proc = run_cli("verify", *args, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_render_ascii_and_svg():
    art = run_cli("render", "--family", "ad", "--n", "2", "--format", "ascii")
    assert art.stdout == ".##.\n####\n####\n.##.\n"
    svg1 = run_cli("render", "--family", "r", "--n", "8", "--format", "svg")
    svg2 = run_cli("render", "--family", "r", "--n", "8", "--format", "svg")
    assert svg1.stdout.startswith("<svg")
    assert svg1.stdout == svg2.stdout

    piped = run_cli("gen", "ar_holey", "--m", "2", "--n", "4", "--keep", "2,3")
    rendered = run_cli("render", "--input", "-", "--format", "svg", stdin=piped.stdout)
    assert rendered.returncode == 0
    assert rendered.stdout.startswith("<svg")


# SHA-256 of `render` output, pinned so that every picture stays byte for byte the same.
RENDER_DIGESTS = [
    (("--family", "r", "--n", "8", "--format", "svg"),
     "61f33b4c423f5bbf2107261a4e0c827ede5b820a8d90fe12dc60f546eefe539f"),
    (("--family", "ar", "--m", "3", "--n", "5", "--format", "svg"),
     "4411d317451e414bfd6c8466745d51f8e43277136dfbf9e329022711b7630891"),
    (("--family", "ad", "--n", "3", "--format", "ascii"),
     "b36185d29eab6e873714f46634cdcee370836bcb854085a095a51de6fc4ee95f"),
    (("--family", "ar", "--m", "2", "--n", "3", "--format", "ascii"),
     "74c9e1a7f7887c9a3eae0cf90cbf68a2548b4884cc3ff3898c550e02a493516c"),
]


@pytest.mark.parametrize("args,digest", RENDER_DIGESTS,
                         ids=[f"{a[1]}-{a[-1]}" for a, _ in RENDER_DIGESTS])
def test_render_output_bytes_are_pinned(args, digest):
    proc = run_cli("render", *args)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("document", ('{"cells": []}', '{"vertices": [], "edges": []}'))
def test_render_svg_of_nothing_is_an_empty_picture(document):
    proc = run_cli("render", "--input", "-", "--format", "svg", stdin=document)
    assert proc.returncode == 0
    assert proc.stdout == '<svg xmlns="http://www.w3.org/2000/svg" width="0" height="0"/>\n'


def test_render_ascii_of_a_far_domino_exits_2_before_drawing():
    # a 4x6 grid and a domino 10^9 columns away: the picture would be about 4 GB of dots
    points = [(x, y) for x in range(6) for y in range(4)] + [(10**9, 0), (10**9 + 1, 0)]
    graph = json.dumps(EmbeddedGraph.from_points(points).to_json_dict())
    proc = run_cli("render", "--input", "-", "--format", "ascii", stdin=graph, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip() == "ascii box 1000000002 x 4 exceeds 1000000 positions"
    svg = run_cli("render", "--input", "-", "--format", "svg", stdin=graph, timeout=10)
    assert svg.returncode == 0


def test_render_ascii_draws_a_box_of_exactly_the_limit():
    from aztec_tilings.errors import TooLargeError
    from aztec_tilings.render import ASCII_MAX_POSITIONS, ascii_cells

    assert ASCII_MAX_POSITIONS == 1000 * 1000
    art = ascii_cells([(0, 0), (999, 999)])
    assert len(art) == 1000 * 1000 + 999
    with pytest.raises(TooLargeError):
        ascii_cells([(0, 0), (1000, 999)])
