"""Command-line interface: round trips, record output, exit codes."""
import shlex

import numpy as np
import pytest

from polarsec.cli import (
    EXIT_CRYPTO,
    EXIT_FORMAT,
    EXIT_OK,
    EXIT_REFUSAL,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_records(out):
    """records-format lines -> list of (name, field dict)."""
    parsed = []
    for line in out.strip().splitlines():
        fields = dict(tok.split("=", 1) for tok in shlex.split(line))
        parsed.append((fields.pop("record"), fields))
    return parsed


@pytest.fixture
def small_key(tmp_path, capsys):
    path = tmp_path / "small.pkc"
    code, _, _ = run(capsys, "keygen", "--n", "6", "--seed", "11",
                     "--out", str(path))
    assert code == EXIT_OK
    return path


def test_encrypt_decrypt_round_trip(tmp_path, capsys, small_key):
    plain = tmp_path / "plain.bin"
    cipher = tmp_path / "cipher.bin"
    back = tmp_path / "back.bin"
    payload = np.random.default_rng(77).integers(0, 256, size=300,
                                                 dtype=np.uint8).tobytes()
    plain.write_bytes(payload)
    code, out, _ = run(capsys, "encrypt", "--key", str(small_key),
                       "--in", str(plain), "--out", str(cipher),
                       "--format", "records")
    assert code == EXIT_OK
    name, fields = parse_records(out)[0]
    assert name == "encrypt" and fields["in_bytes"] == "300"
    code, _, _ = run(capsys, "decrypt", "--key", str(small_key),
                     "--in", str(cipher), "--out", str(back))
    assert code == EXIT_OK
    assert back.read_bytes() == payload


def test_keygen_is_seed_deterministic(tmp_path, capsys):
    paths = [tmp_path / f"k{i}.pkc" for i in range(3)]
    for path, seed in zip(paths, ("9", "9", "10")):
        assert run(capsys, "keygen", "--n", "6", "--seed", seed,
                   "--out", str(path))[0] == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_seed_falls_back_to_environment(tmp_path, capsys, monkeypatch):
    explicit = tmp_path / "a.pkc"
    ambient = tmp_path / "b.pkc"
    run(capsys, "keygen", "--n", "6", "--seed", "42", "--out", str(explicit))
    monkeypatch.setenv("PKC_SEED", "42")
    run(capsys, "keygen", "--n", "6", "--out", str(ambient))
    assert explicit.read_bytes() == ambient.read_bytes()


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    # an empty seed is no seed to parse, not a request for a random one
    for seed, reason in (("-5", "negative"), ("", "cannot parse")):
        out = tmp_path / "neg.pkc"
        code, _, err = run(capsys, "keygen", "--n", "6", "--seed", seed, "--out", str(out))
        assert code == EXIT_USAGE
        assert reason in err
        assert not out.exists()


def test_keygen_record_reports_key_sizes(tmp_path, capsys):
    code, out, _ = run(capsys, "keygen", "--seed", "1",
                       "--out", str(tmp_path / "ref.pkc"),
                       "--format", "records")
    assert code == EXIT_OK
    name, fields = parse_records(out)[0]
    assert name == "keygen"
    assert fields["N"] == "1024" and fields["K"] == "768"
    assert fields["pool"] == "819"
    assert fields["key_bits_actual"] == "14336"
    assert fields["key_bits_compressed"] == "9344"
    assert float(fields["reduction_percent"]) == pytest.approx(34.82, abs=0.01)


def test_text_format_is_block_shaped(tmp_path, capsys):
    code, out, _ = run(capsys, "analyze", "keysize")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "[keysize]"
    assert all(" = " in line for line in lines[1:])
    assert "  total_actual = 14336" in lines


def test_analyze_security_record(capsys):
    code, out, _ = run(capsys, "analyze", "security", "--format", "records")
    assert code == EXIT_OK
    _, fields = parse_records(out)[0]
    assert fields["log2_N_e"] == "256.0"
    assert fields["log2_WF_rn"] == "196608.0"
    assert float(fields["log2_N_c"]) == pytest.approx(271.3895, abs=1e-3)


def test_analyze_tables_flags_published_inconsistencies(capsys):
    code, out, _ = run(capsys, "analyze", "tables", "--format", "records")
    assert code == EXIT_OK
    names = [name for name, _ in parse_records(out)]
    assert names.count("table1") == 5
    assert names.count("table2") == 4
    assert names.count("table3") == 2
    assert names.count("note") >= 2
    assert "716" in out and "717" in out
    assert "2^271" in out and "2^273.6" in out


def test_analyze_complexity_record(capsys):
    code, out, _ = run(capsys, "analyze", "complexity", "--format", "records")
    assert code == EXIT_OK
    _, fields = parse_records(out)[0]
    assert fields["mul_message_gprime"] == str(1024 * 768)
    assert fields["sc_decode"] == str(1024 * 10)


def test_analyze_weights_exhaustive_small(capsys):
    code, out, _ = run(capsys, "analyze", "weights", "--n", "5",
                       "--seed", "2", "--format", "records")
    assert code == EXIT_OK
    _, fields = parse_records(out)[0]
    assert fields["samples"] == "256"
    assert fields["min"] == "0"


def test_simulate_record(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "6", "--trials", "50",
                       "--seed", "5", "--format", "records")
    assert code == EXIT_OK
    _, fields = parse_records(out)[0]
    assert fields["trials"] == "50"
    assert fields["block_errors"] == "0"


def test_attack_rn_toy_end_to_end(capsys):
    code, out, _ = run(capsys, "attack", "rn", "--n", "3", "--k", "4",
                       "--seed", "3", "--format", "records")
    assert code == EXIT_OK
    name, fields = parse_records(out)[0]
    assert name == "attack_rn"
    assert fields["verified"] == "true"
    assert fields["exact_match"] == "true"
    assert fields["intercepted_decrypted"] == "true"


def test_attack_rn_refuses_real_parameters(capsys):
    code, out, err = run(capsys, "attack", "rn")
    assert code == EXIT_REFUSAL
    assert out == ""
    assert "refusal" in err
    assert "Omega(2^196608)" in err


def test_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["encrypt", "--key", "k.pkc"])  # missing --in/--out
    assert excinfo.value.code == EXIT_USAGE
    capsys.readouterr()
    code, _, err = run(capsys, "attack", "curve", "--max-gap", "20")
    assert code == EXIT_USAGE
    assert "max-gap" in err


def test_malformed_key_file(tmp_path, capsys):
    bad = tmp_path / "bad.pkc"
    bad.write_bytes(b"not a key file at all")
    code, _, err = run(capsys, "encrypt", "--key", str(bad),
                       "--in", str(bad), "--out", str(tmp_path / "x"))
    assert code == EXIT_FORMAT
    assert "error:" in err


def test_corrupt_ciphertext_file(tmp_path, capsys, small_key):
    plain = tmp_path / "p.bin"
    cipher = tmp_path / "c.bin"
    plain.write_bytes(b"attack at dawn")
    run(capsys, "encrypt", "--key", str(small_key), "--in", str(plain),
        "--out", str(cipher))
    cipher.write_bytes(cipher.read_bytes()[:-1])
    code, _, err = run(capsys, "decrypt", "--key", str(small_key),
                       "--in", str(cipher), "--out", str(tmp_path / "y"))
    assert code == EXIT_FORMAT
    assert "error:" in err


def test_impossible_scrambler_shape_fails_cleanly(tmp_path, capsys):
    # k0 = 1 with even mu_s forces even row weight, hence singularity;
    # lifted odd k0 with odd mu_s leaves the all-ones vector in the kernel
    for shape in (("--n", "4", "--k0", "1", "--n0", "2", "--l", "8", "--mu-s", "2"),
                  ("--n", "3", "--n0", "8", "--k0", "3", "--mu-s", "1")):
        code, _, err = run(capsys, "keygen", *shape,
                           "--seed", "1", "--out", str(tmp_path / "z.pkc"))
        assert code == EXIT_CRYPTO
        assert "scrambler" in err
