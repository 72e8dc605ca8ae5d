import hashlib
import json
import re

import pytest

from simplespectrum.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_census(capsys):
    code, out = run_cli(capsys, "census", "--n", "3")
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["simple"] == 6 and rec["total"] == 8


def test_census_csv(capsys):
    code, out = run_cli(capsys, "--out", "csv", "census", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("kind,")
    assert "census" in lines[1]


def test_census_bad_n_exits_2(capsys):
    code, _ = run_cli(capsys, "census", "--n", "12")
    assert code == 2


def test_montecarlo(capsys):
    code, out = run_cli(
        capsys, "montecarlo", "--ensemble", "gnp", "--n", "2",
        "--trials", "200", "--seed", "1",
    )
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["trials"] == 200
    assert rec["wilson_lo"] <= rec["point_estimate"] <= rec["wilson_hi"]


def test_montecarlo_threads_identical(capsys):
    _, out1 = run_cli(
        capsys, "--threads", "1", "montecarlo", "--ensemble", "sign",
        "--n", "3", "--trials", "100", "--seed", "2",
    )
    _, out4 = run_cli(
        capsys, "--threads", "4", "montecarlo", "--ensemble", "sign",
        "--n", "3", "--trials", "100", "--seed", "2",
    )
    a, b = json.loads(out1), json.loads(out4)
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exits_2(capsys, threads):
    code = main(["--threads", threads, "montecarlo", "--ensemble", "sign",
                 "--n", "3", "--trials", "10"])
    assert code == 2
    assert "--threads" in capsys.readouterr().err


def test_richness(capsys):
    code, out = run_cli(
        capsys, "richness", "--n", "4", "--A", "2", "--delta", "1e-9",
        "--trials", "5", "--seed", "0",
    )
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["trials"] == 5


def test_check_simple(capsys, tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("0 1 1\n1 0 1\n1 1 0\n")
    code, out = run_cli(capsys, "check-simple", "--matrix", str(f))
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["tag"] == "NotSimpleExact"

    g = tmp_path / "m.json"
    g.write_text(json.dumps({"n": 2, "rows": [["1", "0"], ["0", "2"]]}))
    code, out = run_cli(capsys, "check-simple", "--matrix", str(g))
    assert json.loads(out.strip())["simple"]


def test_conc_prob(capsys, tmp_path):
    vf = tmp_path / "v.json"
    vf.write_text(json.dumps(["1", "1", "1", "1"]))
    df = tmp_path / "d.json"
    df.write_text(json.dumps({"atoms": ["-1", "1"], "probs": ["1/2", "1/2"]}))
    code, out = run_cli(capsys, "conc-prob", "--vector", str(vf), "--dist", str(df))
    assert code == 0
    assert json.loads(out.strip()) == {"p": "3/8", "atom": "0", "mode": "exact"}


def test_gap_cover(capsys, tmp_path):
    vf = tmp_path / "v.json"
    vf.write_text(json.dumps(["1", "2", "3", "4", "5", "100"]))
    code, out = run_cli(capsys, "gap-cover", "--vector", str(vf), "--m", "1")
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["found"]
    assert rec["gap"] == {"generators": ["1"], "dims": ["5"]}


def test_refine(capsys, tmp_path):
    vf = tmp_path / "v.json"
    vf.write_text(json.dumps(["1"] * 16))
    df = tmp_path / "d.json"
    df.write_text(json.dumps({"atoms": ["-1", "1"], "probs": ["1/2", "1/2"]}))
    code, out = run_cli(
        capsys, "refine", "--vector", str(vf), "--dist", str(df),
        "--A", "1", "--eps", "0.2",
    )
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["w_indices"] == list(range(16))
    assert len(rec["wprime_indices"]) == 3


def test_refine_not_rich_exits_2(capsys, tmp_path):
    vf = tmp_path / "v.json"
    vf.write_text(json.dumps([str(2**i) for i in range(16)]))
    df = tmp_path / "d.json"
    df.write_text(json.dumps({"atoms": ["-1", "1"], "probs": ["1/2", "1/2"]}))
    code, _ = run_cli(
        capsys, "refine", "--vector", str(vf), "--dist", str(df),
        "--A", "1", "--eps", "0.2",
    )
    assert code == 2


DIST = json.dumps({"atoms": ["-1", "1"], "probs": ["1/2", "1/2"]})


def _write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def assert_contract_error(capsys, argv, named):
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {named}")


def test_check_simple_bad_rational_exits_2(capsys, tmp_path):
    m = _write(tmp_path, "m.txt", "0 x\nx 0\n")
    assert_contract_error(capsys, ["check-simple", "--matrix", m], f"matrix {m!r}")


def test_conc_prob_bad_rational_exits_2(capsys, tmp_path):
    v = _write(tmp_path, "v.json", '["1", "x"]')
    d = _write(tmp_path, "d.json", DIST)
    argv = ["conc-prob", "--vector", v, "--dist", d]
    assert_contract_error(capsys, argv, f"vector {v!r}")


def test_gap_cover_bad_json_exits_2(capsys, tmp_path):
    v = _write(tmp_path, "v.json", '["1", "2"')
    argv = ["gap-cover", "--vector", v, "--m", "0"]
    assert_contract_error(capsys, argv, f"vector {v!r}")


def test_gap_cover_missing_entries_exits_2(capsys, tmp_path):
    v = _write(tmp_path, "v.json", '{"values": ["1"]}')
    argv = ["gap-cover", "--vector", v, "--m", "0"]
    assert_contract_error(capsys, argv, f"vector {v!r}")


def test_refine_missing_file_exits_2(capsys, tmp_path):
    v = str(tmp_path / "absent.json")
    d = _write(tmp_path, "d.json", DIST)
    argv = ["refine", "--vector", v, "--dist", d, "--A", "1", "--eps", "0.2"]
    assert_contract_error(capsys, argv, f"vector {v!r}")


@pytest.mark.parametrize("key", ["atoms", "probs"])
def test_dist_missing_key_exits_2(capsys, tmp_path, key):
    v = _write(tmp_path, "v.json", '["1", "1"]')
    d = _write(tmp_path, "d.json", json.dumps({key: ["1"]}))
    argv = ["conc-prob", "--vector", v, "--dist", d]
    assert_contract_error(capsys, argv, f"distribution {d!r}")


def test_refine_empty_w_exits_2(capsys, tmp_path):
    # The first cover of five equal values may skip all of them.
    v = _write(tmp_path, "v.json", json.dumps(["1"] * 5))
    d = _write(tmp_path, "d.json", DIST)
    argv = ["refine", "--vector", v, "--dist", d, "--A", "1", "--eps", "0.2"]
    assert main(argv) == 2
    assert "covers no coordinate" in capsys.readouterr().err


def test_gap_cover_rmax(capsys, tmp_path):
    # Base-100 digits: no rank-1 cover fits volume 100, a rank-2 one does.
    values = [str(a + 100 * b) for a in (-2, -1, 0, 1, 2) for b in (-1, 0, 1)]
    v = _write(tmp_path, "v.json", json.dumps(values))
    out = {}
    for rmax in ("1", "2", "3"):
        argv = ["gap-cover", "--vector", v, "--m", "0", "--rmax", rmax]
        code, out[rmax] = run_cli(capsys, *argv, "--volmax", "100")
        assert code == 0
    assert json.loads(out["1"]) == {"kind": "gap-cover", "found": False}
    assert len(json.loads(out["2"])["gap"]["generators"]) == 2
    assert out["3"] == out["2"]
    assert main(["gap-cover", "--vector", v, "--m", "0", "--rmax", "0"]) == 2
    assert capsys.readouterr().err == "error: --rmax must be >= 1, not 0\n"


def test_refine_bad_c0_exits_2(capsys, tmp_path):
    v = _write(tmp_path, "v.json", json.dumps(["1"] * 16))
    d = _write(tmp_path, "d.json", DIST)
    argv = ["refine", "--vector", v, "--dist", d, "--A", "1", "--eps", "0.2",
            "--C0", "ten"]
    assert_contract_error(capsys, argv, "--C0 'ten'")


# sha256 of the records below with wall_time removed, as the exact route
# gave them when it always computed the char poly.
RECORDS_SHA256 = "2ace1395bc306e6659dab808d01cb48fd29b52f2872979b1765073acda5c000e"


def test_check_simple_and_montecarlo_records_pinned(capsys, tmp_path):
    mats = [
        "0 1 1\n1 0 1\n1 1 0\n",  # K3
        "1 -1 0 0\n-1 2 -1 0\n0 -1 2 -1\n0 0 -1 1\n",  # path Laplacian
        "0 0\n0 0\n",
        json.dumps({"n": 3, "rows": [["0", "1/2", "1/2"], ["1/2", "0", "1/2"], ["1/2", "1/2", "0"]]}),
        json.dumps({"n": 3, "rows": [["1/2", "1/3", "0"], ["1/3", "1/4", "1"], ["0", "1", "-2"]]}),
        "\n".join(" ".join("1" if (i * j + i + j) % 3 else "-1" for j in range(12)) for i in range(12)),
    ]
    out = []
    for k, text in enumerate(mats):
        f = tmp_path / f"m{k}.{'json' if text.startswith('{') else 'txt'}"
        f.write_text(text)
        for fmt in ("json", "csv"):
            out.append(run_cli(capsys, "--out", fmt, "check-simple", "--matrix", str(f)))
    for ensemble in ("sign", "gnp"):
        for n in ("12", "30"):
            code, rec = run_cli(capsys, "montecarlo", "--ensemble", ensemble, "--n", n,
                                "--trials", "20", "--seed", "5")
            out.append((code, re.sub(r'"wall_time": [^,}]*', '"wall_time"', rec)))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == RECORDS_SHA256
