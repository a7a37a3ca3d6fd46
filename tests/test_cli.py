"""Command-line front end: artifacts, exit codes, reproducibility."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import delaylq as dl
from delaylq import cli
from delaylq.cli import _leads, _write_pair_table, main
from loop_oracles import write_pair_table_rows
from test_multidim import planar_problem


def run(args):
    return main([str(a) for a in args])


def run_interpreter(argv, tmp_path):
    """Run the CLI in a separate interpreter, so an escaping exception
    shows up on stderr as it does for a user."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(dl.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, "-m", "delaylq.cli", *argv,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120)


def unstable_problem_file(tmp_path):
    """tanh at N = 40 with B1 = 0 and A1 = 40: every path is flagged."""
    p = dl.preset_problem("tanh", 40)
    p.B1[:] = 0.0
    p.A1[:] = 40.0
    path = tmp_path / "unstable.json"
    dl.save_problem(p, path)
    return path


# sha256 of kernel_{A,B,C,D}.csv from `solve --dump-kernels --n-steps 16`,
# pinned from the solver that still stored the dense lifted tables; B of
# distributed and full re-made when the lifting summed its memory channel
# in one product (moves of at most 6.6e-17 relative to the largest entry)
KERNEL16_SHA256 = {
    "tanh": (
        "c21fcd478baf5ac25b0e3a4494b45d1fd3a94bf99e11df81d4c40f729424b919",
        "9bd2d3b4365b3ad7c223fb8319e33069d5e27c2ac9ca393c7e0a55a48fa0374d",
        "c21fcd478baf5ac25b0e3a4494b45d1fd3a94bf99e11df81d4c40f729424b919",
        "e46eb73acada1a1b80d265d9aef426ffa37067a51be0bdffbb18255a7702df9c"),
    "input-delay": (
        "c21fcd478baf5ac25b0e3a4494b45d1fd3a94bf99e11df81d4c40f729424b919",
        "705ddc957dd81a00814eb559bd3d2c66e1b30ec70c85f9f1b979f58b1de26b83",
        "c21fcd478baf5ac25b0e3a4494b45d1fd3a94bf99e11df81d4c40f729424b919",
        "e46eb73acada1a1b80d265d9aef426ffa37067a51be0bdffbb18255a7702df9c"),
    "state-delay": (
        "6573bf09384a5a03578f9c652c9c7457ecc40becd9660145cae36848cf62f54e",
        "9bd2d3b4365b3ad7c223fb8319e33069d5e27c2ac9ca393c7e0a55a48fa0374d",
        "c21fcd478baf5ac25b0e3a4494b45d1fd3a94bf99e11df81d4c40f729424b919",
        "e46eb73acada1a1b80d265d9aef426ffa37067a51be0bdffbb18255a7702df9c"),
    "pointwise": (
        "2f89554276a6eb46e47d0746d6cb8cb4995c6dbea61dcc3cb3bcc3fe894776b5",
        "dee637e139beeab657cd3a451be6dc07a6868b7f927c94e3ffb78a8902c50e5e",
        "e3631c16fd095dcb793f81ad31b41ed56015789bc4019d59f492a3627ead36d1",
        "456f3c013304a9384534383f8e726d0d6d12d50a9444c38b78b352b81cf45f86"),
    "distributed": (
        "e505097a967e642e4a974099ee2275f3002d67aeb3f8430f35d28d37081de5fb",
        "ddd5dea1a8d2e88ffee78f8f8183201861ac15c6bb01039eb07c88965ca2fd39",
        "e262d7fa0eebc016559d5972deefea2dff49eec2481aaa401ba7757d0cbcdf21",
        "17f901720a991e06a2a817d8ad418b8038044c0a33312233376f29e3803355eb"),
    "full": (
        "8ecf0df9bb29dc0a1eb6ca5d86219cd6eab1b0f57906d4ce69d0947dcdc95cc1",
        "c68f151fe45aad2a428fddf40a9d3bd4d349a1b8d07c1efabd944cd59606acbd",
        "a92f8adbf1e7e2abdced36694a0d17756c9a3036111876843ea4c7a8a0299941",
        "ded0376890109e11b617c4f5bed527dd1b9c68d256af905a8b5a37bc6c976547"),
}


# sha256 of feedback_{k1,k2,k3,k4,v}.csv from `solve --n-steps 16` on each
# preset and from `solve --problem` on the planar n = m = 2 problem at
# N = 16, pinned from the synthesis that formed the history gain in (s, t)
# order; k1 from the synthesis that reads it off the suffix table i1grid
FEEDBACK16_SHA256 = {
    "tanh": (
        "167fb6e2673473508d761eb46c17fdc36addc0096ccec85a21aa3699a6e51fed",
        "1f3e53b0f23b6a84490ef3a98b82a6349f8da3d23a8ec06d6824f0578585c67f",
        "afea49c1c24712d67f699a072c73392d9b31d29792f9e1825e4c188ed7ffa55c",
        "1f3e53b0f23b6a84490ef3a98b82a6349f8da3d23a8ec06d6824f0578585c67f",
        "ad7d31eb8d05697c099d11289adccb1e5b3ca87d84e8b457ae07e53568ba8bf9"),
    "input-delay": (
        "f53fa113966b75501392e98c31c7344dcb8f519606c8e7ebdb083b1f2a4e5168",
        "1f3e53b0f23b6a84490ef3a98b82a6349f8da3d23a8ec06d6824f0578585c67f",
        "afea49c1c24712d67f699a072c73392d9b31d29792f9e1825e4c188ed7ffa55c",
        "6d1e12f42c3659c8b869801716fc63e8e7667da18c18417cc459cb97ee44d16c",
        "ad7d31eb8d05697c099d11289adccb1e5b3ca87d84e8b457ae07e53568ba8bf9"),
    "state-delay": (
        "b91f3e6c8befcb347a368514c2cf0fc74dc2f301b438780b75f3d19e4cc24ad1",
        "29d21f8db0974d439e91c472ac8e2df7f2605d60e8a2e361254813717ec13877",
        "afea49c1c24712d67f699a072c73392d9b31d29792f9e1825e4c188ed7ffa55c",
        "1f3e53b0f23b6a84490ef3a98b82a6349f8da3d23a8ec06d6824f0578585c67f",
        "8f2c2f63044c71f4407c68a120654b6eae77f5710f8d95376772ee93a538fffb"),
    "pointwise": (
        "983036ac706f66056edc69eeb489c435fb032ef2ff522493d200fd5369434ddf",
        "276bc1b944fb48f511e758dfd617c274162d0ca9ff1278f6815d668786b11525",
        "ebb6bdc47ba15f28475ee3d3282398eb19dde61846e46a87564ef58a86e52107",
        "c8fec4c37526b0b9ce6a1bb2af9e9a7941c47e309cedf4176fd22c52052ab5d6",
        "f803b06fb4599c325e530f81a9293ae7603629cdfc8fd85dda2d8305b8ab65f0"),
    "distributed": (
        "02b6b5fdc88954e058eac9cdeb6b6e8cd0f8d0016097c0a9abc19e040c4e0402",
        "74c4bddbabce7eafdf767c895116fd399b5d27782d63cb7284f5f91082e9596b",
        "afea49c1c24712d67f699a072c73392d9b31d29792f9e1825e4c188ed7ffa55c",
        "bf5defe8746448a6f9feb2d92a57deecafc94d6a7a818b49e5c9ae5cf7ef422b",
        "ad7d31eb8d05697c099d11289adccb1e5b3ca87d84e8b457ae07e53568ba8bf9"),
    "full": (
        "712bccd845103a0f31709fd5ee7307de395449e5892113570736fdfe5fef9ee6",
        "715df555f4b9765e17aed247938f2114e7af9dac1bb10b99389c6ecb66e5d97e",
        "2005cfd403502278c966087c8c41f678d9a78f9f4f4cd8bddb1d92eac3fabbde",
        "8db0544caa6be55f090c50ef3266a6bc5939f01ac946348dfe4937dd5f9119e3",
        "f02fc4efbee3ae03ad1dfc6c817d5981868adbb5932d2bda4ef5d03a1b99c84c"),
    "planar": (
        "53c87ced62445e192bd5a5ab0f85157175fd75abece1ee593cd69fc05b7a5e53",
        "9177d4f9cbdff614f2d84fd69d52ab8335b5eb9840bb680d351f3c96e197aac5",
        "cd9401fdc2d0e4dbb627f8db153f6a1ed1229582e5631d0a253baae0a9637f75",
        "8246bf3e163169310374834db4ca65b97dd93b7e293a20a1d69a91cb81dc42dd",
        "3e30a482b9cc953ad78347aca20dcfd86bd606353e91d4683dacae33cbe7358f"),
}


# sha256 of the files SOLVE48_FILES names from `solve --n-steps 48` on each
# preset.  The sweep runs four blocks of 16 nodes there, so its products
# over the finished rows span one to three stored blocks of H, where N = 16
# spans one
SOLVE48_FILES = ("feedback_k1.csv", "feedback_k2.csv", "feedback_k3.csv",
                 "feedback_k4.csv", "feedback_v.csv", "riccati_p1.csv",
                 "summary.json")
SOLVE48_SHA256 = {
    "tanh": (
        "6943f475ebb948c4f0f2be068d5f19a954c602d036d5229af7ab68d5e4145cf1",
        "cb90752f0694419698626dc8ecabdb9e14e2744e492a6757228707299a277ac3",
        "ee8232825e4a3858fb932a4869c2c3a8838682bc1093d668a56faad0f7cd27fd",
        "cb90752f0694419698626dc8ecabdb9e14e2744e492a6757228707299a277ac3",
        "9149233f3890e58470c7260db58f2093b8939b318a98c4c74d27fb4f519c8db8",
        "4f7fa21d4dee09afad552b9bd64db513277ffd6b381d7f2f572a5061d9d9812d",
        "68109de6713ba1689f18f9cb4cfdf99dad01c1314f55f54e9fe54d44d5264b73"),
    "input-delay": (
        "e08e4c84d4cb48b66536e9aa82ee3a073cdc394d204ab6fd89ab2ede75802b3c",
        "cb90752f0694419698626dc8ecabdb9e14e2744e492a6757228707299a277ac3",
        "ee8232825e4a3858fb932a4869c2c3a8838682bc1093d668a56faad0f7cd27fd",
        "4019db9de38a936b2ff245a46a75bfd8f9f2a3b8ab098452fa478234017e3848",
        "9149233f3890e58470c7260db58f2093b8939b318a98c4c74d27fb4f519c8db8",
        "4f7fa21d4dee09afad552b9bd64db513277ffd6b381d7f2f572a5061d9d9812d",
        "5ff1d55dbffd8e915a3a2273f9176adce552e6d804c6d1b2bddb3e2a2ca6e455"),
    "state-delay": (
        "f511efdc561ac5413624d3e43856bc7b34f5da273608defafa11c183f86a6d08",
        "190e8faf11657253bb67bbd5bc5d5dbd4dc5f02930cd33d7e8b4bf640947798d",
        "ee8232825e4a3858fb932a4869c2c3a8838682bc1093d668a56faad0f7cd27fd",
        "cb90752f0694419698626dc8ecabdb9e14e2744e492a6757228707299a277ac3",
        "ec9d819305c66ed0132b7105b2e8b06117bf1b1280e5a43a597501cec18741a4",
        "4f7fa21d4dee09afad552b9bd64db513277ffd6b381d7f2f572a5061d9d9812d",
        "04679c2f84b5c3c77dddd27594c49bffffa2ae0a11e22312e02f8a506b86cfd1"),
    "distributed": (
        "f98debd4aaac78993cc0f04556bf36dacaaee5414ce9263b7546b2ceac2a4fe1",
        "dfc7ab329c89acaa6ef4a893998ea03c9b3f4a07d3c3ff04fbe3df27530ac312",
        "ee8232825e4a3858fb932a4869c2c3a8838682bc1093d668a56faad0f7cd27fd",
        "0417b99ebc467ed63de7398f28fb8dc5985ffcbeb8d04e9f745196678c141ba1",
        "9149233f3890e58470c7260db58f2093b8939b318a98c4c74d27fb4f519c8db8",
        "1cb39de84d76ba19d3a59602a22849fb2d7a9cfb4d341a1c73a993b6b1ce8f32",
        "da356ba12c03164bd60ee287638d2c58d60b26cd67991577c3b5855b03cdc64f"),
    "pointwise": (
        "abdd6c48dda0c02ba60a47c70e0f9fd9ab1fda34a203b9e68ad3855fede30c7b",
        "aaeaea3b5e22441bbdcbce5af6874d7db3cd33e0ef4a6700b4484231260a43b3",
        "e48a0cdb8c36565e9e02879dd1a5184afa2e61f3b2a9149963138904dea4e8d4",
        "f08c25cb81f8aa94b269a3a681786965b4e3ba43d3d621870323b1a206a7413f",
        "05940872d57fac2984d6ea810a7149017341db3449f49e8d7f68d8c04645553c",
        "358e7ad8c1e720385ee84c2d14ad0ff1d17b02d50f066adbb25618d378517297",
        "f0d5f8ca943d605498cd8d127a7897640dc9889d63188df8757f474e543e2f25"),
    "full": (
        "14d8b20da5ca1114e95fe239cb158de8a1b1dd3ce6c4c1dfb9c27cb95f542b6d",
        "10111061c61a7268904f0c75b6cc78fb6e5e38c6be565b13e215c6b5549253db",
        "e1afd9bea5f4c0a644bc9b420e65a3b8c8a1775712f8a9d1ebe997e4f01b1331",
        "479342f8d054d8318086bb8563550e1091849c61a1a13f9ef16c7d60ba6e574e",
        "20e1fda01919ccf6ef273e3e30135c78323769f01eec0ff1eb2c3006262d653b",
        "630843a97176fd7e44d2f33246a8afe10cd0374051539b3407915238658f761f",
        "5c7c3ea2f8d1b2625f2a3cb63b2616277a0d5093bf04147d026e1e75f282c29a"),
}


class TestSolve:
    def test_tanh_summary_contains_value(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["solve", "--preset", "tanh", "--n-steps", "100",
                    "--out", out]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["value_function"] == pytest.approx(0.7616, abs=8e-3)
        assert (out / "feedback_k1.csv").exists()
        assert (out / "feedback_k2.csv").exists()
        assert (out / "riccati_p1.csv").exists()

    def test_zero_data_solve_produces_zero_artifacts(self, tmp_path):
        p = dl.empty_problem(dl.TimeGrid(0.0, 1.0, 12, 0.25), 1, 1)
        p.R1[:] = 1.0
        path = tmp_path / "zero.json"
        dl.save_problem(p, path)
        out = tmp_path / "run"
        assert run(["solve", "--problem", path, "--out", out]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["value_function"] == 0.0
        k1 = np.loadtxt(out / "feedback_k1.csv", delimiter=",")
        assert np.abs(k1[:, 2:]).max() == 0.0

    def test_malformed_json_exits_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["solve", "--problem", bad, "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert "line" in err

    @pytest.mark.parametrize("field", ["N", "delay_steps", "n", "m"])
    def test_fractional_header_field_exits_one_on_one_line(self, field,
                                                           tmp_path):
        # "N": 8.7 must not run as N = 8
        doc = dl.problem_to_dict(dl.preset_problem("tanh", 8))
        doc[field] += 0.7
        path = tmp_path / "frac.json"
        path.write_text(json.dumps(doc))
        proc = run_interpreter(["solve", "--problem", str(path)], tmp_path)
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("failed to parse problem JSON: ")
        assert field in lines[0]

    @pytest.mark.parametrize("field, value", [
        ("N", 1_000_000_000), ("N", 0), ("n", 0), ("m", 0),
        ("n", 100_000), ("n", 2), ("m", 100_000), ("m", 2)])
    def test_header_its_tables_contradict_exits_one_on_one_line(
            self, field, value, tmp_path):
        # "N": 1e9, or "n": 1e5 against tables of n = 1, allocated the
        # kernels from the header before any table was compared with it;
        # "n": 0 or 2 printed a validation line per field
        doc = dl.problem_to_dict(dl.preset_problem("tanh", 8))
        doc[field] = value
        path = tmp_path / "header.json"
        path.write_text(json.dumps(doc))
        proc = run_interpreter(["solve", "--problem", str(path)], tmp_path)
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("failed to parse problem JSON: ")

    def test_whole_float_header_fields_are_accepted(self, tmp_path):
        doc = dl.problem_to_dict(dl.preset_problem("tanh", 8))
        runs = {}
        for kind, cast in (("int", int), ("float", float)):
            doc.update({f: cast(doc[f]) for f in ("N", "delay_steps", "n", "m")})
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / kind
            assert run(["solve", "--problem", path, "--out", out]) == 0
            runs[kind] = (out / "summary.json").read_bytes()
        assert runs["int"] == runs["float"]

    def test_overflow_is_reported_on_one_line(self, tmp_path):
        # Q1 = 1e308 overflows the terminal corner: one diagnostic naming
        # its node, no numpy warnings before it
        p = dl.preset_problem("tanh", 8)
        p.Q1[:] = 1e308
        path = tmp_path / "huge.json"
        dl.save_problem(p, path)
        proc = run_interpreter(["solve", "--problem", str(path)], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "numerical failure: two-time kernel non-finite at node 8"]

    def test_missing_file_is_io_failure(self, tmp_path):
        assert run(["solve", "--problem", tmp_path / "nope.json",
                    "--out", tmp_path / "o"]) == 3

    def test_invalid_problem_reports_violations(self, tmp_path, capsys):
        p = dl.empty_problem(dl.TimeGrid(0.0, 1.0, 12, 0.25), 1, 1)
        path = tmp_path / "bad.json"
        dl.save_problem(p, path)  # R = 0: coercivity fails
        assert run(["solve", "--problem", path, "--out", tmp_path / "o"]) == 1
        assert "coercivity" in capsys.readouterr().err

    @pytest.mark.parametrize("r1", [0.0, 1.0])
    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    def test_non_finite_coercivity_constant_is_one_violation(
            self, lam, r1, tmp_path, capsys):
        # NaN fails no comparison, so neither lam <= 0 nor the weight's
        # floor caught it; inf failed the floor at every node
        p = dl.preset_problem("tanh", 8)
        p.R1[:] = r1
        path = tmp_path / "lam.json"
        dl.save_problem(p, path)
        doc = json.loads(path.read_text())
        doc["lambda"] = float(lam)
        path.write_text(json.dumps(doc))
        assert run(["solve", "--problem", path, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "validation: coercivity constant must be positive and finite, "
            f"got lam={float(lam)}"]

    @pytest.mark.parametrize("preset", sorted(KERNEL16_SHA256))
    def test_kernel_dump_flag(self, preset, tmp_path):
        out = tmp_path / "run"
        assert run(["solve", "--preset", preset, "--n-steps", "16",
                    "--out", out, "--dump-kernels"]) == 0
        for name, want in zip("ABCD", KERNEL16_SHA256[preset]):
            data = (out / f"kernel_{name}.csv").read_bytes()
            assert hashlib.sha256(data).hexdigest() == want, name

    def test_kernel_dump_forms_the_lifted_columns_once(self, tmp_path,
                                                         monkeypatch):
        # the three kernels and B are contracted from one [U | B] table:
        # the dump adds one lifted_columns call to what the solve makes
        columns, calls = dl.VolterraProblem.lifted_columns, []

        def counted(self, *args, **kwargs):
            calls.append(args)
            return columns(self, *args, **kwargs)

        monkeypatch.setattr(dl.VolterraProblem, "lifted_columns", counted)
        flags = ["solve", "--preset", "full", "--n-steps", "16"]
        assert run([*flags, "--out", tmp_path / "plain"]) == 0
        plain = len(calls)
        assert run([*flags, "--out", tmp_path / "dump", "--dump-kernels"]) == 0
        assert len(calls) - plain == plain + 1, calls

    @pytest.mark.parametrize("case", sorted(FEEDBACK16_SHA256))
    def test_feedback_tables_are_pinned(self, case, tmp_path):
        if case == "planar":
            path = tmp_path / "planar.json"
            dl.save_problem(planar_problem(16, m=2), path)
            flags = ["--problem", path]
        else:
            flags = ["--preset", case, "--n-steps", "16"]
        out = tmp_path / "run"
        assert run(["solve", *flags, "--out", out]) == 0
        for name, want in zip(("k1", "k2", "k3", "k4", "v"),
                              FEEDBACK16_SHA256[case]):
            data = (out / f"feedback_{name}.csv").read_bytes()
            assert hashlib.sha256(data).hexdigest() == want, name

    @pytest.mark.parametrize("preset", sorted(SOLVE48_SHA256))
    def test_outputs_past_one_sweep_block_are_pinned(self, preset, tmp_path):
        out = tmp_path / "run"
        assert run(["solve", "--preset", preset, "--n-steps", "48",
                    "--out", out]) == 0
        for name, want in zip(SOLVE48_FILES, SOLVE48_SHA256[preset]):
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == want, name

    def test_out_of_memory_exits_two_on_one_line(self, tmp_path, capsys,
                                                 monkeypatch):
        def exhausted(problem):
            raise MemoryError("Unable to allocate 1.16 TiB")

        monkeypatch.setattr(cli, "build_volterra", exhausted)
        assert run(["solve", "--preset", "tanh", "--n-steps", "8",
                    "--out", tmp_path / "o"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("out of memory: ")


# sha256 of kernel_{A,B,C,D}.csv from `solve --dump-kernels` on the planar
# n = m = 2 problem at N = 8, pinned from the writer that formatted one row
# at a time
PLANAR8_KERNEL_SHA256 = (
    "d89845ce03284b36b28458ea695cd60ecfa6f49484f4c1e5920dbccfdc6204d7",
    "202db9d0b4718e4c7deb115af72cd94bf310103d426517aab8f3d8dd10dbd7ab",
    "cfd1d42dfd4cf3a6e47aee4b5fbb8cccf1f6c6a019e42954191a0f92ef07b0b9",
    "3cd4e14abb5a5ca3783735531ed2346f346506d24378b71a9832b25218e8af2f")

#: finite doubles the %.17g format must carry through: signed zeros,
#: subnormals, the smallest normal and the largest magnitudes
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.5e-320, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308)


class TestPairTables:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((1, 2, 17)).flatmap(
        lambda N: st.sampled_from((1, 2, 4)).flatmap(
            lambda w: arrays(np.float64, (N + 1, N + 1, w), elements=st.one_of(
                st.sampled_from(EDGE_FLOATS),
                st.floats(allow_nan=False, allow_infinity=False))))))
    def test_writer_matches_the_row_by_row_reference(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = (os.path.join(tmp, name) for name in ("new", "ref"))
            _write_pair_table(got, table, _leads(table.shape[0]))
            write_pair_table_rows(want, table)
            with open(got, "rb") as fa, open(want, "rb") as fb:
                assert fa.read() == fb.read()

    def test_feedback_tables_match_the_reference_writer(self, tmp_path):
        out = tmp_path / "run"
        assert run(["solve", "--preset", "full", "--n-steps", "24",
                    "--out", out]) == 0
        vp = dl.build_volterra(dl.preset_problem("full", 24))
        P = dl.solve_riccati(vp)
        s = dl.synthesize_feedback(P, vp)
        for name, table in (("feedback_k2.csv", s.k2),
                            ("feedback_k4.csv", s.k4)):
            write_pair_table_rows(tmp_path / name, table)
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_planar_kernel_dump_is_pinned(self, tmp_path):
        path = tmp_path / "planar.json"
        dl.save_problem(planar_problem(8, m=2), path)
        out = tmp_path / "run"
        assert run(["solve", "--problem", path, "--dump-kernels",
                    "--out", out]) == 0
        for name, want in zip("ABCD", PLANAR8_KERNEL_SHA256):
            data = (out / f"kernel_{name}.csv").read_bytes()
            assert hashlib.sha256(data).hexdigest() == want, name


class TestSimulate:
    def test_summary_and_paths(self, tmp_path):
        out = tmp_path / "run"
        assert run(["simulate", "--preset", "full", "--n-steps", "24",
                    "--n-paths", "100", "--seed", "3", "--out", out]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["n_paths"] == 100
        assert doc["cost_stderr"] > 0.0
        assert doc["flagged_paths"] == 0
        x = np.loadtxt(out / "paths_x.csv", delimiter=",")
        assert x.shape[0] == 25


    def test_all_flagged_batch_writes_null_costs(self, tmp_path):
        # every path blows up, so the cost estimates are NaN: the summary
        # writes them as null and stays JSON
        path = unstable_problem_file(tmp_path)
        out = tmp_path / "run"
        assert run(["simulate", "--problem", path, "--n-paths", "8",
                    "--out", out]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["cost_mean"] is None and doc["cost_stderr"] is None
        assert doc["flagged_paths"] == doc["n_paths"] == 8


class TestVerify:
    def test_stationarity_on_an_all_flagged_batch_is_null(self, tmp_path):
        out = tmp_path / "run"
        assert run(["verify", "--problem", unstable_problem_file(tmp_path),
                    "--verify", "stationarity", "--n-paths", "8",
                    "--out", out]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["stationarity_worst_excess"] is None
        assert doc["stationarity_pass_fraction"] == 0.0

    @pytest.mark.parametrize("seed", [2 ** 64, -2 ** 63 - 1])
    def test_stationarity_takes_every_seed_simulate_takes(self, seed,
                                                          tmp_path):
        # the directions' key is reduced mod 2^64, as the noise's is
        proc = run_interpreter(["verify", "--preset", "full", "--n-steps",
                                "8", "--n-paths", "4", "--verify",
                                "stationarity", "--seed", str(seed)],
                               tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert (tmp_path / "o" / "summary.json").exists()

    def test_residuals_on_zero_weight_problem_are_zero(self, tmp_path):
        p = dl.empty_problem(dl.TimeGrid(0.0, 1.0, 12, 0.25), 1, 1)
        p.R1[:] = 1.0
        p.A1[:] = 0.3
        path = tmp_path / "zero.json"
        dl.save_problem(p, path)
        out = tmp_path / "run"
        assert run(["verify", "--problem", path, "--verify", "residuals",
                    "--out", out]) == 0
        doc = json.loads((out / "summary.json").read_text())
        for key in ("residual_pointwise", "residual_evolution",
                    "residual_boundary", "residual_rcal_identity"):
            assert doc[key] == 0.0

    def test_qp_oracle_gate_passes_on_deterministic_preset(self, tmp_path,
                                                           capsys):
        out = tmp_path / "run"
        assert run(["verify", "--preset", "input-delay", "--n-steps", "40",
                    "--verify", "qp-oracle", "--out", out]) == 0
        assert "gap <= 5*dt: PASS" in capsys.readouterr().out
        doc = json.loads((out / "summary.json").read_text())
        assert doc["qp_gap_within_5dt"] is True

    def test_qp_oracle_rejects_diffusion(self, tmp_path, capsys):
        assert run(["verify", "--preset", "full", "--n-steps", "16",
                    "--verify", "qp-oracle", "--out", tmp_path / "o"]) == 1
        assert "zero diffusion" in capsys.readouterr().err

    def test_case_verification_runs_per_preset(self, tmp_path):
        out = tmp_path / "run"
        assert run(["verify", "--preset", "state-delay", "--n-steps", "24",
                    "--verify", "residuals,cases", "--out", out]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert "caseii_ode_late" in doc
        lines = (out / "residuals.csv").read_text().splitlines()
        assert lines[0] == "node,pointwise,evolution,boundary"
        assert len(lines) == 26

    @pytest.mark.parametrize("name", ["tanh", "input-delay", "state-delay"])
    def test_problem_file_gets_the_preset_case_checks(self, name, tmp_path):
        path = tmp_path / "problem.json"
        dl.save_problem(dl.preset_problem(name, 24), path)
        docs = []
        for source in (["--preset", name, "--n-steps", "24"],
                       ["--problem", path]):
            out = tmp_path / source[0].lstrip("-")
            assert run(["verify", *source, "--verify", "residuals,cases",
                        "--out", out]) == 0
            doc = json.loads((out / "summary.json").read_text())
            docs.append({k: v for k, v in doc.items()
                         if k.startswith("case")})
        assert docs[0] and docs[0] == docs[1]

    def test_problem_file_outside_every_case_skips_once(self, tmp_path,
                                                        capsys):
        path = tmp_path / "problem.json"
        dl.save_problem(dl.preset_problem("full", 24), path)
        capsys.readouterr()
        assert run(["verify", "--problem", path, "--verify",
                    "residuals,cases", "--out", tmp_path / "o"]) == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "skipping" in err[0]
        doc = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert not [k for k in doc if k.startswith("case")]

    def test_unknown_toggle_rejected(self, tmp_path, capsys):
        assert run(["verify", "--preset", "tanh", "--verify", "bogus",
                    "--out", tmp_path / "o"]) == 1


class TestArgumentChecks:
    @pytest.mark.parametrize("argv", [
        ["solve", "--preset", "full", "--n-steps", "10"],
        ["solve", "--preset", "full", "--n-steps", "0"],
        ["solve", "--n-steps", "-4"],
        ["simulate", "--preset", "full", "--n-steps", "8", "--n-paths", "0"],
    ])
    def test_bad_arguments_exit_one_without_traceback(self, argv, tmp_path):
        proc = run_interpreter(argv, tmp_path)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--preset", "full", "--n-steps", "abc"],
        ["solve", "--preset", "full", "--no-such-flag"],
        ["solve", "--preset", "full", "--n-paths", "5"],
        ["simulate", "--preset", "full", "--dump-riccati"],
        # no --eps: the stationarity step is fixed, the difference exact
        ["verify", "--preset", "input-delay", "--n-steps", "8",
         "--verify", "stationarity", "--n-paths", "4", "--eps", "0"],
        ["verify", "--preset", "input-delay", "--n-steps", "8",
         "--verify", "stationarity", "--n-paths", "4", "--eps", "nan"],
    ])
    def test_usage_errors_exit_one_on_one_line(self, argv, tmp_path):
        proc = run_interpreter(argv, tmp_path)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "error: " in lines[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [
        ["--n-steps", "7"], ["--preset", "tanh"],
        ["--preset", "full", "--n-steps", "24"],
    ])
    def test_problem_file_takes_no_preset_or_step_count(self, flags, tmp_path,
                                                        capsys):
        # the file fixes the problem and its grid; a flag that would pick
        # another one is refused, not ignored
        path = tmp_path / "p24.json"
        dl.save_problem(dl.preset_problem("tanh", 24), path)
        assert run(["solve", "--problem", path, *flags,
                    "--out", tmp_path / "o"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation: --problem")
        assert not (tmp_path / "o").exists()


class TestReproducibility:
    def test_identical_config_and_seed_byte_identical_summary(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(["simulate", "--preset", "full", "--n-steps", "24",
                        "--n-paths", "64", "--seed", "99", "--out", out]) == 0
            outs.append((out / "summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the sweep's sums against the frontier, the lifting's products and
        # the synthesis's are BLAS calls, which may split work across
        # threads; the outputs must not change with that, at the
        # benchmark's N = 240 and at N = 480 too, nor may the residuals and
        # the case I and II checks that verify reads off the same tables
        feedback = tuple(f"feedback_{g}.csv" for g in
                         ("k1", "k2", "k3", "k4", "v"))
        checks = ("summary.json", "residuals.csv")
        runs = (
            (("solve", "full", "48", "--dump-riccati"),
             ("riccati_p2.csv", "riccati_p1.csv", "feedback_v.csv")),
            (("solve", "full", "240"),
             feedback + ("riccati_p1.csv", "summary.json")),
            # the synthesis's history products span every node pair, and
            # the sweep's products over a block of nodes are at their widest
            (("solve", "full", "480"),
             ("riccati_p1.csv", "feedback_k1.csv", "feedback_k2.csv",
              "feedback_k4.csv", "feedback_v.csv")),
            (("verify", "input-delay", "240", "--verify", "residuals,cases"),
             checks),
            (("verify", "state-delay", "240", "--verify", "residuals,cases"),
             checks),
            # the residual's products over a block of nodes, masked node by
            # node, are widest with every lifted block live
            (("verify", "full", "240", "--verify", "residuals"), checks),
        )
        src = os.path.dirname(os.path.dirname(dl.__file__))
        for run_no, ((command, preset, steps, *flags), tables) in enumerate(
                runs):
            outs = []
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
                env["PYTHONPATH"] = os.pathsep.join(
                    [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
                out = tmp_path / f"{run_no}-{threads}"
                proc = subprocess.run(
                    [sys.executable, "-m", "delaylq.cli", command, "--preset",
                     preset, "--n-steps", steps, *flags, "--out", str(out)],
                    capture_output=True, text=True, env=env, timeout=120)
                assert proc.returncode == 0, proc.stderr
                outs.append([(out / name).read_bytes() for name in tables])
            for name, one, two in zip(tables, *outs):
                assert one == two, (command, preset, steps, name)
