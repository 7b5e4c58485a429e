import io
import json

import pytest

from varcong.cli import main
from varcong.variant import build_context

SMALL = "3: 1 2 2"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_height_command(capsys):
    code, out, _ = run(capsys, "height", "--a", SMALL, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["formula"] == payload["search"] == 7
    assert payload["witness_class_counts"][-1] == 1


def test_congruences_both(capsys):
    code, out, _ = run(capsys, "congruences", "--a", SMALL, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_count"] == payload["structural_count"] == 15
    assert payload["match"] is True
    assert payload["only_oracle"] == payload["only_structural"] == 0


def test_congruences_structural_formats(capsys):
    code, out, _ = run(capsys, "congruences", "--a", SMALL,
                       "--method", "structural", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 15
    assert len(payload["nodes"]) == 15

    code, dot, _ = run(capsys, "congruences", "--a", SMALL,
                       "--method", "structural", "--format", "dot")
    assert code == 0
    assert dot.startswith("digraph")

    code, text, _ = run(capsys, "congruences", "--a", SMALL,
                        "--method", "structural")
    assert code == 0
    assert len(text.strip().splitlines()) == 15


def test_congruences_oracle_text(capsys):
    code, out, _ = run(capsys, "congruences", "--a", "2: 1 1",
                       "--method", "oracle")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_congruences_image_t(capsys):
    code, out, _ = run(capsys, "congruences", "--a", SMALL,
                       "--semigroup", "image-T", "--method", "both",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["chain_count"] == 4  # the chain of the monoid on 2 points
    assert payload["match"] is True


def test_full_variant_needs_the_oracle(capsys):
    code, _, err = run(capsys, "congruences", "--a", SMALL,
                       "--semigroup", "full-variant", "--method", "structural")
    assert code == 2
    assert "oracle" in err


def test_oracle_refuses_dot(capsys):
    code, _, err = run(capsys, "congruences", "--a", "2: 1 1",
                       "--method", "oracle", "--format", "dot")
    assert code == 2
    assert "structural" in err


def test_cap_is_enforced(capsys):
    code, _, err = run(capsys, "congruences", "--a", SMALL,
                       "--method", "oracle", "--cap-elements", "3")
    assert code == 2
    assert "refused" in err
    # a nine-point domain would need 9^9 rows; refused before any allocation
    code, _, err = run(capsys, "congruences", "--a", "9: 1 1 1 1 1 1 1 1 1",
                       "--method", "both")
    assert code == 2
    assert "refused" in err


def test_eggbox_files(tmp_path, capsys):
    prefix = str(tmp_path / "eb")
    code, out, err = run(capsys, "eggbox", "--a", SMALL, "--format", "dot",
                         "--out", prefix)
    assert code == 0
    for name in ("full-variant", "regular-part", "image-T"):
        path = tmp_path / f"eb_{name}.dot"
        assert path.exists()
        assert path.read_text().startswith("digraph")
    assert err.count("wrote") == 3

    code, out, _ = run(capsys, "eggbox", "--a", SMALL,
                       "--semigroup", "regular-part")
    assert code == 0
    assert out.startswith("== regular-part ==")
    assert "D-class" in out


def test_classify_round_trip(tmp_path, capsys):
    ctx = build_context(SMALL)
    path = tmp_path / "kappa.json"
    path.write_text(json.dumps(ctx.kappa.to_blocks()))
    code, out, _ = run(capsys, "classify", "--a", SMALL, str(path),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 1 and payload["N"] == "triv"
    assert payload["classes"] == ctx.kappa.num_blocks()


def test_classify_from_stdin(capsys, monkeypatch):
    ctx = build_context(SMALL)
    blocks = json.dumps(ctx.rho.to_blocks())
    monkeypatch.setattr("sys.stdin", io.StringIO(blocks))
    code, out, _ = run(capsys, "classify", "--a", SMALL, "-")
    assert code == 0
    assert json.loads(out)["q"] == 1


def test_classify_universal(tmp_path, capsys):
    ctx = build_context(SMALL)
    path = tmp_path / "univ.json"
    path.write_text(json.dumps([list(range(len(ctx.P)))]))
    code, out, _ = run(capsys, "classify", "--a", SMALL, str(path))
    assert code == 0
    assert json.loads(out) == {"universal": True}


def test_classify_rejects_non_congruence(tmp_path, capsys):
    ctx = build_context(SMALL)
    blocks = [[0, 1]] + [[i] for i in range(2, len(ctx.P))]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blocks))
    code, _, err = run(capsys, "classify", "--a", SMALL, str(path))
    assert code == 1
    assert "not a congruence" in err and "translation" in err


def test_bad_inputs_exit_2(capsys):
    assert run(capsys, "height", "--a", "nope")[0] == 2
    assert run(capsys, "height", "--a", "3: 1 2 9")[0] == 2
    assert run(capsys, "height", "--a", SMALL, "--cap-elements", "-1")[0] == 2
    with pytest.raises(SystemExit):
        main(["congruences"])  # --a is required


def test_output_is_deterministic(capsys):
    for argv in (["--method", "structural"],
                 ["--method", "both"],
                 ["--semigroup", "image-T", "--method", "both"],
                 ["--method", "oracle"]):
        args = ["congruences", "--a", SMALL, *argv, "--format", "json"]
        _, first, err = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second, argv
        assert first.endswith("\n")
        # wall-clock timings belong on stderr, never in the payload
        assert "seconds" not in first, argv
        assert "congruences in" in err


def test_cap_refuses_before_the_chain_is_built(capsys, monkeypatch):
    calls = []
    # |T| = 4^4 follows from the sandwich, so not even the context is built
    for target in ("varcong.malcev.malcev_chain", "varcong.cli.build_context"):
        monkeypatch.setattr(target, lambda *a, **k: calls.append(a))
    code, out, err = run(capsys, "congruences", "--a", "4: 1 2 3 4",
                         "--semigroup", "image-T", "--method", "both",
                         "--cap-elements", "100")
    assert code == 2
    assert "refused" in err and "256" in err
    assert out == "" and calls == []


def test_cap_refuses_before_the_structural_pipeline(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("varcong.cli.enumerate_structurally",
                        lambda *a, **k: calls.append(a))
    code, out, err = run(capsys, "congruences", "--a", SMALL,
                         "--method", "both", "--cap-elements", "3")
    assert code == 2
    assert "refused" in err
    assert out == "" and calls == []


@pytest.mark.parametrize("blocks, message", [
    ([[i] for i in range(10)] + [[-1]], "outside"),  # -1 must not wrap to 10
    ([[0, 1000]], "outside"),
    (5, "list"),
    ({"a": 1}, "list"),
    ([[0, "1"]], "integer"),
])
def test_classify_rejects_malformed_blocks(tmp_path, capsys, blocks, message):
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(blocks))
    code, out, err = run(capsys, "classify", "--a", SMALL, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_threads_flag_is_accepted(capsys):
    code, out, _ = run(capsys, "height", "--a", SMALL, "--threads", "4",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["match"] is True
