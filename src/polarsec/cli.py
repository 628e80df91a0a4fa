"""Command-line front end: key generation, file encryption, channel
simulation, parameter analysis, and the toy-scale attack harness.

Exit codes: 0 success, 2 usage error, 3 malformed key/ciphertext file,
4 cryptographic operation failure, 5 refusal (requested computation is
infeasible by design).
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from .analysis import (
    SCALING_EXPONENT_BEC,
    complexity_report,
    default_pool,
    key_size_report,
    perturbation_weight_stats,
    reproduce_tables,
    security_report,
    simulate_round_trip,
)
from .attacks import (
    DEFAULT_MAX_GAP,
    AttackInfeasibleError,
    attack_cost_curve,
    attack_decrypt,
    build_toy_instance,
    rn_attack,
)
from .cipher import (
    CipherContext,
    CiphertextError,
    frame_plaintext,
    pack_ciphertext,
    unframe_plaintext,
    unpack_ciphertext,
)
from .gf2 import SingularMatrixError
from .keys import (
    KeyFormatError,
    KeyGenerationError,
    KeyParams,
    deserialize_key,
    generate_key,
    reference_params,
    scrambler_invertible,
    serialize_key,
)
from .lfsr import taps_for_degree
from .rng import derive_rng, parse_seed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_CRYPTO = 4
EXIT_REFUSAL = 5


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if " " in text:
        return '"' + text + '"'
    return text


def _emit(args, name: str, fields: dict) -> None:
    """One logical record, as an aligned text block or a single
    self-describing ``key=value`` line."""
    if args.format == "records":
        parts = [f"record={name}"] + [f"{k}={_fmt_value(v)}" for k, v in fields.items()]
        print(" ".join(parts))
    else:
        print(f"[{name}]")
        for k, v in fields.items():
            print(f"  {k} = {_fmt_value(v)}")


# ---------------------------------------------------------------------------
# shared option plumbing
# ---------------------------------------------------------------------------

def _add_format(sp) -> None:
    sp.add_argument("--format", choices=("text", "records"), default="text",
                    help="output style (default: text)")


def _add_seed(sp) -> None:
    sp.add_argument("--seed", default=None,
                    help="hex or decimal seed; falls back to the PKC_SEED "
                         "environment variable, then to system entropy")


def _add_params(sp) -> None:
    sp.add_argument("--n", type=int, default=None, help="log2 block length")
    sp.add_argument("--k0", type=int, default=None, help="information sub-blocks per group")
    sp.add_argument("--n0", type=int, default=None, help="sub-blocks per block")
    sp.add_argument("--l", type=int, default=None, help="sub-block length")
    sp.add_argument("--mu-s", dest="mu_s", type=int, default=None,
                    help="nonzero circulant blocks per scrambler block-row")
    sp.add_argument("--epsilon", type=float, default=None, help="design erasure rate")
    sp.add_argument("--mu", type=float, default=None,
                    help="scaling exponent used for the default index pool")
    sp.add_argument("--pool", type=int, default=None, help="index pool size")


def _resolve_seed(args) -> int:
    text = getattr(args, "seed", None)
    if text is None:
        text = os.environ.get("PKC_SEED")
    if text is None:
        return int.from_bytes(os.urandom(32), "little")
    return parse_seed(text)


def _params_from_args(args) -> KeyParams:
    ref = reference_params()
    n = args.n if args.n is not None else ref.n
    size = 1 << n
    n0 = args.n0 if args.n0 is not None else ref.n0
    l = args.l if args.l is not None else max(1, size // n0)
    k0 = args.k0 if args.k0 is not None else min(ref.k0, n0 - 1)
    mu_s = args.mu_s if args.mu_s is not None else min(ref.mu_s, l)
    epsilon = args.epsilon if args.epsilon is not None else ref.epsilon
    mu = args.mu if args.mu is not None else SCALING_EXPONENT_BEC
    k = k0 * l
    if args.pool is not None:
        pool = args.pool
    else:
        pool = min(size, max(k, default_pool(n, epsilon, mu)))
    taps = taps_for_degree(size - k)
    params = KeyParams(n=n, k0=k0, n0=n0, l=l, mu_s=mu_s, epsilon=epsilon,
                       pool=pool, taps=taps)
    if args.mu_s is None and not scrambler_invertible(params):
        # the default weight admits no invertible scrambler at this shape
        params = dataclasses.replace(params, mu_s=1)
    return params


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_bytes(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        return
    with open(path, "wb") as fh:
        fh.write(data)


def _load_key(path: str):
    return deserialize_key(_read_bytes(path))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_keygen(args) -> int:
    params = _params_from_args(args)
    key = generate_key(params, derive_rng(_resolve_seed(args), "keygen"))
    data = serialize_key(key)
    _write_bytes(args.out, data)
    sizes = key_size_report(params)
    _emit(args, "keygen", {
        "path": args.out,
        "n": params.n, "K": params.num_info, "N": params.block_length,
        "k0": params.k0, "n0": params.n0, "l": params.l, "mu_s": params.mu_s,
        "epsilon": params.epsilon, "pool": params.pool,
        "file_bytes": len(data),
        "key_bits_actual": sizes.total_actual,
        "key_bits_compressed": sizes.total_compressed,
        "reduction_percent": sizes.reduction_percent,
    })
    return EXIT_OK


def cmd_encrypt(args) -> int:
    key = _load_key(args.key)
    data = _read_bytes(args.infile)
    ctx = CipherContext(key)
    blocks = frame_plaintext(data, ctx.num_info)
    payload = pack_ciphertext(ctx.encrypt_blocks(blocks))
    _write_bytes(args.out, payload)
    _emit(args, "encrypt", {
        "in_bytes": len(data), "blocks": blocks.shape[0],
        "out_bytes": len(payload),
    })
    return EXIT_OK


def cmd_decrypt(args) -> int:
    key = _load_key(args.key)
    payload = _read_bytes(args.infile)
    ctx = CipherContext(key)
    received = unpack_ciphertext(payload, ctx.block_length)
    messages, ambiguous = ctx.decrypt_blocks(received)
    data = unframe_plaintext(messages)
    _write_bytes(args.out, data)
    _emit(args, "decrypt", {
        "in_bytes": len(payload), "blocks": received.shape[0],
        "ambiguous_blocks": int(np.count_nonzero(ambiguous)),
        "out_bytes": len(data),
    })
    return EXIT_OK


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    if args.key:
        key = _load_key(args.key)
    else:
        key = generate_key(_params_from_args(args), derive_rng(seed, "keygen"))
    channel = args.epsilon if args.epsilon is not None else key.params.epsilon
    report = simulate_round_trip(key, channel, args.trials,
                                 derive_rng(seed, "simulate"))
    _emit(args, "simulate", {
        "trials": report.trials, "channel_epsilon": report.channel_epsilon,
        "block_errors": report.block_errors,
        "ambiguous_blocks": report.ambiguous_blocks,
        "observed_rate": report.observed_rate,
        "bound_P_e1": report.p_e1, "bound_P_e2": report.p_e2,
    })
    return EXIT_OK


def cmd_analyze_tables(args) -> int:
    report = reproduce_tables(_params_from_args(args))
    for row in report.table1 + report.table2 + report.table3:
        name = f"table{ {'I': 1, 'II': 2, 'III': 3}[row['table']] }"
        _emit(args, name, {k: v for k, v in row.items() if k != "table"})
    for note in report.notes:
        _emit(args, "note", {"text": note})
    return EXIT_OK


def cmd_analyze_security(args) -> int:
    params = _params_from_args(args)
    sec = security_report(params)
    _emit(args, "security", {
        "log2_N_c": sec.log2_n_c, "log2_N_e": sec.log2_n_e,
        "log2_N_s_lower": sec.log2_n_s_lower, "log2_N_p": sec.log2_n_p,
        "log2_WF_rn": sec.log2_wf_rn,
        "log2_ST_ciphertexts": sec.log2_st_ciphertexts,
        "log2_ST_operations": sec.log2_st_operations,
    })
    return EXIT_OK


def cmd_analyze_keysize(args) -> int:
    sizes = key_size_report(_params_from_args(args))
    _emit(args, "keysize", {
        "bits_indices": sizes.bits_indices, "bits_seed": sizes.bits_seed,
        "bits_S": sizes.bits_s, "bits_P": sizes.bits_p,
        "total_actual": sizes.total_actual,
        "bits_S_compressed": sizes.bits_sc, "bits_P_compressed": sizes.bits_pc,
        "bits_chr": sizes.bits_chr,
        "total_compressed": sizes.total_compressed,
        "reduction_percent": sizes.reduction_percent,
    })
    return EXIT_OK


def cmd_analyze_complexity(args) -> int:
    comp = complexity_report(_params_from_args(args))
    _emit(args, "complexity", {
        "mul_message_gprime": comp.mul_message_gprime,
        "mul_perturb_perm": comp.mul_perturb_perm,
        "mul_receive_perm": comp.mul_receive_perm,
        "sc_decode": comp.sc_decode,
        "mul_unscramble": comp.mul_unscramble,
    })
    return EXIT_OK


def cmd_analyze_weights(args) -> int:
    seed = _resolve_seed(args)
    if args.key:
        key = _load_key(args.key)
    else:
        key = generate_key(_params_from_args(args), derive_rng(seed, "keygen"))
    ctx = CipherContext(key)
    gap = ctx.block_length - ctx.num_info
    if (1 << gap) <= 4096:
        stats = perturbation_weight_stats(ctx, exhaustive=True)
    else:
        stats = perturbation_weight_stats(ctx, samples=args.trials,
                                          rng=derive_rng(seed, "weights"))
    nonzero = np.nonzero(stats.histogram)[0]
    hist = ",".join(f"{w}:{int(stats.histogram[w])}" for w in nonzero[:24])
    _emit(args, "weights", {
        "samples": stats.samples, "mean": stats.mean,
        "min": stats.min, "max": stats.max, "histogram": hist,
    })
    return EXIT_OK


def cmd_attack_rn(args) -> int:
    ref = reference_params()
    n = args.n if args.n is not None else ref.n
    k = args.k if args.k is not None else ref.num_info
    gap = (1 << n) - k
    if not 1 <= k < (1 << n):
        raise ValueError("need 1 <= K < 2^n")
    if gap > DEFAULT_MAX_GAP:
        print(
            f"refusal: N - K = {gap} with K = {k} puts chosen-plaintext "
            f"recovery at Omega(2^((N-K)K)) = Omega(2^{gap * k}) operations; "
            f"it stops at N - K = {DEFAULT_MAX_GAP}; known pairs break any key (linear_kpa)",
            file=sys.stderr,
        )
        return EXIT_REFUSAL
    seed = _resolve_seed(args)
    instance = build_toy_instance(n, k, seed=seed)
    oracle = instance.oracle(mode="lfsr")
    start = time.perf_counter()
    result = rn_attack(oracle, collection_budget=args.budget,
                       rng=derive_rng(seed, "attack-verify"))
    elapsed = time.perf_counter() - start
    exact = bool(result.verified
                 and result.recovered_gprime == instance.true_matrix)
    decrypted = False
    if exact:
        # decrypt an intercepted ciphertext with the recovered matrix
        demo_rng = derive_rng(seed, "attack-demo")
        message = demo_rng.integers(0, 2, size=k, dtype=np.uint8)
        intercepted = instance.context(start_block=23).encrypt(message).bits
        found = attack_decrypt(result.recovered_gprime,
                               result.candidate_error_space, intercepted)
        decrypted = len(found) == 1 and bool(np.array_equal(found[0], message))
    _emit(args, "attack_rn", {
        "n": n, "K": k, "gap": gap,
        "queries": result.queries_used,
        "candidates_examined": result.candidates_examined,
        "rank": len(result.candidate_error_space),
        "seconds": elapsed,
        "verified": result.verified,
        "exact_match": exact,
        "intercepted_decrypted": decrypted,
        "note": result.note or "ok",
    })
    return EXIT_OK


def cmd_attack_curve(args) -> int:
    max_gap = args.max_gap
    if not 2 <= max_gap <= DEFAULT_MAX_GAP:
        raise ValueError(f"--max-gap must be in [2, {DEFAULT_MAX_GAP}]")
    points = attack_cost_curve(gaps=tuple(range(2, max_gap + 1)),
                               seed=_resolve_seed(args))
    for pt in points:
        _emit(args, "curve_point", {
            "gap": pt.gap, "n": pt.n, "K": pt.num_info,
            "queries": pt.queries,
            "candidates_examined": pt.candidates_examined,
            "rank": pt.rank,
            "seconds": pt.seconds, "recovered": pt.recovered,
        })
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarsec",
        description="Secret-key cipher over polar codes on the binary "
                    "erasure channel: keys, file encryption, analysis, "
                    "and a toy attack harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key file")
    _add_params(kg)
    _add_seed(kg)
    _add_format(kg)
    kg.add_argument("--out", default="key.pkc", help="key file path")
    kg.set_defaults(func=cmd_keygen)

    enc = sub.add_parser("encrypt", help="encrypt a file")
    enc.add_argument("--key", required=True)
    enc.add_argument("--in", dest="infile", required=True)
    enc.add_argument("--out", required=True)
    _add_format(enc)
    enc.set_defaults(func=cmd_encrypt)

    dec = sub.add_parser("decrypt", help="decrypt a file")
    dec.add_argument("--key", required=True)
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--out", required=True)
    _add_format(dec)
    dec.set_defaults(func=cmd_decrypt)

    sim = sub.add_parser("simulate", help="Monte Carlo round trip over the erasure channel")
    _add_params(sim)
    _add_seed(sim)
    _add_format(sim)
    sim.add_argument("--key", default=None, help="use an existing key file")
    sim.add_argument("--trials", type=int, default=1000)
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="recompute design tables and reports")
    anasub = ana.add_subparsers(dest="topic", required=True)
    for topic, func in (
        ("tables", cmd_analyze_tables),
        ("security", cmd_analyze_security),
        ("keysize", cmd_analyze_keysize),
        ("complexity", cmd_analyze_complexity),
    ):
        tp = anasub.add_parser(topic)
        _add_params(tp)
        _add_format(tp)
        tp.set_defaults(func=func)
    wt = anasub.add_parser("weights")
    _add_params(wt)
    _add_seed(wt)
    _add_format(wt)
    wt.add_argument("--key", default=None)
    wt.add_argument("--trials", type=int, default=1000)
    wt.set_defaults(func=cmd_analyze_weights)

    atk = sub.add_parser("attack", help="toy-scale chosen-plaintext attack")
    atksub = atk.add_subparsers(dest="mode", required=True)
    rn = atksub.add_parser("rn")
    rn.add_argument("--n", type=int, default=None, help="log2 block length of the toy instance")
    rn.add_argument("--k", type=int, default=None, help="information bits of the toy instance")
    rn.add_argument("--budget", type=int, default=None,
                    help="query budget for error-space collection")
    _add_seed(rn)
    _add_format(rn)
    rn.set_defaults(func=cmd_attack_rn)
    curve = atksub.add_parser("curve")
    curve.add_argument("--max-gap", dest="max_gap", type=int, default=8,
                       help="largest N - K to measure (starting from 2)")
    _add_seed(curve)
    _add_format(curve)
    curve.set_defaults(func=cmd_attack_curve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyFormatError, CiphertextError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except AttackInfeasibleError as exc:
        print(f"refusal: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    except (KeyGenerationError, SingularMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CRYPTO
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
