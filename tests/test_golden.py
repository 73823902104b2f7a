"""Golden outputs: byte-exact digests of short-horizon variants of configs/*.json.

Each case merges a few overrides into one of the shipped configs (a shorter
horizon, a looser stop tolerance, a smaller grid), runs it through the CLI
and compares the sha256 of the files it writes against pinned values; the
``report.json`` of ``conflow verify`` on each run directory is pinned too.
Any change of the integrator's or the checks' arithmetic, however small,
changes a digest; a refactor that keeps the numerics must keep all of them.  Update a digest only
for an intended change of the numerics, and say so where the change is
recorded.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conflow import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# id -> (config stem, overrides merged into it, sha256 per output file)
RUNS = {
    "negative_horizon": (
        "negative", {"time": {"T_final": 0.3}},
        {
            "series.csv": "ed0aa0b525f2d6e0f4c0d1c8521e7a62443e3c99b10084ec28b8bd6904bc4ecc",
            "summary.json": "b96c716c6b61d0157ab6a42bcc32036efedb3d57659019f9b7ae6f502ab27815",
            "u_final.field": "8c07e22eca3bedf696e9f35bf164ea1fbca990336164bb0cb4e20053411a17fc",
        },
    ),
    "negative_stationary": (
        "negative", {"grid": {"points": [32]}, "time": {"stop_tol": 1e-6}},
        {
            "series.csv": "28e0fe37da3528c02febd5e6cb85a43fbaff31ddc2e33dd30e7798acf84a3ddb",
            "summary.json": "306da943b0bf0d0797752a1a6929ce0877bfee0c55b98bae0528f139bf6788d1",
            "u_final.field": "236528c9ed542fe24db79f1d29a7f5095ac77c7c3c3f5f640ff84f5924d5a5e4",
        },
    ),
    "negative_euler_fixed": (
        "negative", {"grid": {"points": [32]},
                     "time": {"T_final": 0.1, "scheme": "euler", "log_cadence": 7,
                              "dt": {"policy": "fixed", "dt": 0.001}}},
        {
            "series.csv": "3fe5a94c87789d537a3ea157dab7f1448ea8b187d0b1c0759e721669d7283b78",
            "summary.json": "229a9b95d5b82d4bdd36be837a6e251df863f8d630484f167628a57ace1b0e69",
            "u_final.field": "9a88ded02fb5afdcc58d2a879b8ef8162ea8828e67a10729ace4062cf4976824",
        },
    ),
    "positive": (
        "positive", {"time": {"T_final": 0.3}},
        {
            "series.csv": "264ced3711874b61df7e2c8a73f0b8cd690cb6cd1dcadaaa9703d0ba3206c7e1",
            "summary.json": "b9f83488c8ef333ab3eb14148b754fffe3d6105ad06cbed0dfc79cae98db11bd",
            "u_final.field": "55078b14fb6874c3405d60c255d65b3b7112c04a604dede50341bc1b4260b2b9",
        },
    ),
    "flat": (
        "flat", {"time": {"T_final": 0.05}},
        {
            "series.csv": "5696151857f3c83d863fdfddab39267a848773e1022ec4d18c192627feff29a9",
            "summary.json": "dc0522959fd9c7af7071bdfa9b6ea1fe34dc7f30e2e0d592c1899a34ed24a821",
            "u_final.field": "472837ff31fa76cfc11d3f2731e96721480621a0f888c755b060756420e39376",
        },
    ),
    "compare_normalized": (
        "compare_normalized", {"time": {"T_final": 0.2}},
        {
            "series.csv": "db5f480668cef88f2e323dced7d5b26fd4973073b930fb3c244255b3bda2bfee",
            "summary.json": "bfb4ba7c8e91d99f7b2b50a68e437c5d3f463085e5d7f98738cdc171e4dbc681",
            "u_final.field": "1443e58573266479cc5666ed6557ed67ffe0a5ddda8b22348d635cbeaac01fda",
        },
    ),
    "compare_nonnormalized": (
        "compare_nonnormalized", {"time": {"T_final": 0.2}},
        {
            "series.csv": "6639c1f038bae9853eb1111f8eb635df0160c7898528cf0b6ef8902472710344",
            "summary.json": "e4f8f64e6a84b0f02fce883b62b8a4b7dcd8308b257b3a12dd5ed95526e8835b",
            "u_final.field": "5e535a53f0c33f1030ab1b2baa2b7350a1ded44853e6a11764522826ecad76e3",
        },
    ),
}

# id -> sha256 of report.json from `conflow verify <run dir>` with the
# config's own checks (the case-tag defaults where it names none)
REPORTS = {
    "compare_nonnormalized": "dec2721576a94d62b62c21366c846a646a403b64e096bc595d026c7ce3fcf54e",
    "compare_normalized": "4eb13dbc4e024c85b9d94619c1400c4c97ac3be68538fbd3e89a760ad62fcc4c",
    "flat": "2c85331fde741ca8ab6f701766bcebd5adb001cc4b9a15ab4b9fcbc6691bffe9",
    "negative_euler_fixed": "5e1417143506bd20a6e47dd57ac82d0b3e8422eed3fef41531ae5904c34cb50d",
    "negative_horizon": "442364dcd6e91be6bcdfa82ac8caa5ef8edbcb15a9bd7a833e20207a671eae24",
    "negative_stationary": "fdc6817cb8c0de92a09bbf5e01d4e8f488861d8fd210563384832dab0a49bd13",
    # re-pinned when positive_curvature_bounds' note lost its trailing ";"
    "positive": "6d6acbabe6b0364944d4aa322d4a6c427405fb714d97174c74f0510b3ef98ba3",
}
# `conflow verify <compare_normalized run dir> --checks rescale`; re-pinned
# when the companion's rescaling came from its logged volume (sup_gap
# 1.48e-7 -> 6.99e-8, 34 records matched before and after)
RESCALE_REPORT = "028ea2ea51281029d61326bbc4d02c3d022607d5fd121c6832b490adee7860db"

SWEEP_T_FINAL = 0.1
SWEEP = {
    "aggregate.csv": "587a76ea3f021fb876ee30b25b1e995ee149b2c92a9d969fa87457ee3cc628b9",
    "classical_n64/series.csv": "d0955b353db5d339ff369da4cf50835b0d356674503ef38dd2dcdf95d212d4d6",
    "classical_n64/summary.json": "c958bb4703e0d68b13b476f5e067d543e317ac1d90a5ce2fb245376ada92683e",
    "classical_n128/series.csv": "0aaf79f62c40ba5defc0f77f1d94ed95414259d608315c9a8b378794349c6956",
    "classical_n128/summary.json": "3a78571c1e2bf871a35a096006356afd178f33c879ae0df5599196072f860e1b",
    "expdecay_n64/series.csv": "ebfea82648345e7bef2d7029ff614520b96209f8509927d47ec2c814228f8de1",
    "expdecay_n64/summary.json": "d3aaf0f7487fbca88008c86c7ada02fc42d2337023cb439233c0690a4f659267",
    "expdecay_n128/series.csv": "6552e792b58b12413f9de7ff7c96e32db4892ea503acdb96edfb197917e1dd55",
    "expdecay_n128/summary.json": "10511b2a8ee28b5a20eaa62f9b94acf2da387c9233dece9996c63dba73bef733",
}


def _digests(root: Path, names) -> dict:
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


def _run_case(tmp_path: Path, case: str) -> Path:
    stem, overrides, _ = RUNS[case]
    cfg = cli._merge(json.loads((CONFIGS / f"{stem}.json").read_text()), overrides)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    cli.main(["run", str(path), "--out", str(out)])
    return out


def _report_digest(run_dir: Path, out: Path, *checks: str) -> str:
    cli.main(["verify", str(run_dir), "--out", str(out), *checks])
    return _digests(out, ["report.json"])["report.json"]


def test_every_config_has_a_golden_case():
    stems = {stem for stem, _, _ in RUNS.values()} | {"sweep_small"}
    assert stems == {p.stem for p in CONFIGS.glob("*.json")}
    assert set(REPORTS) == set(RUNS)


@pytest.mark.parametrize("case", sorted(RUNS))
def test_run_outputs_match_golden(tmp_path, case):
    expected = RUNS[case][2]
    assert _digests(_run_case(tmp_path, case), expected) == expected


@pytest.mark.parametrize("case", sorted(RUNS))
def test_verify_report_matches_golden(tmp_path, case):
    run_dir = _run_case(tmp_path, case)
    assert _report_digest(run_dir, tmp_path / "verify") == REPORTS[case]


def test_rescale_verify_report_matches_golden(tmp_path):
    run_dir = _run_case(tmp_path, "compare_normalized")
    digest = _report_digest(run_dir, tmp_path / "verify", "--checks", "rescale")
    assert digest == RESCALE_REPORT


def test_sweep_outputs_match_golden(tmp_path):
    plan = json.loads((CONFIGS / "sweep_small.json").read_text())
    plan["base"]["time"]["T_final"] = SWEEP_T_FINAL
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(plan))
    out = tmp_path / "out"
    assert cli.main(["sweep", str(path), "--jobs", "1", "--out", str(out)]) == 0
    assert _digests(out, SWEEP) == SWEEP
