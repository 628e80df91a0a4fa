#!/usr/bin/env python3
"""polarsec benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload bulk_encrypt --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports ``polarsec`` from its
``src`` directory.  All inputs come from ``--seed`` and are made before any
timing starts.  The run repeats one deterministic *cycle* of operations
until ``--seconds`` have passed (always whole cycles, so a faster program
sees the same inputs, not later ones).  Outputs are checked outside the
timed region; a failed check counts as a failed operation.

The last line of standard output is the result object.  With ``--trace 0``
it holds the end-to-end metrics of ``BENCHMARK.json``, measured with no
tracing; with ``--trace 1`` the per-layer metrics from the traced run (see
``tracer.py``).  The line before it is a ``report`` object with the named
workload metrics, sample counts, exact per-cycle counts and provenance.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

# One thread for the BLAS libraries, fixed before numpy is imported.
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

from tracer import Tracer, account  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-spans"

EPSILON = 0.05             # noisy_channel erasure rate
FILE_BYTES = 2 << 20       # bulk_* plaintext
CHECK_CHUNK = 2048         # blocks per call when the checks encrypt or decrypt a file
SAMPLE_BLOCKS = 32         # file blocks re-encrypted with dense maps, per cycle
SIM_TRIALS = 4096          # blocks per simulate_round_trip call
SIM_CALLS = 4              # simulate_round_trip calls per noisy_channel cycle
MESSAGES = 40              # small_sessions messages per cycle
MESSAGE_MIN, MESSAGE_MAX = 16, 8192
CURVE_GAPS = tuple(range(2, 13))   # every N - K the attack harness accepts
CAPPED = dict(n=5, num_info=12, budget=500, max_gap=20)  # N - K = 20
CAPPED_NOTE = "error space incomplete within budget"
SETUP_REPEATS = 7
REFERENCE_KEY_SEED = 20130725
# The peak-RSS process maps every large array when it is allocated and
# returns it when freed, with no transparent huge pages, so its peak RSS is
# peak live memory.  With glibc's adaptive mmap threshold the peak RSS of
# one and the same run flipped between 363 and 515 MiB with the heap layout
# left by earlier allocations.  Timed runs keep the default allocator.
PEAK_RSS_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072", "NUMPY_MADVISE_HUGEPAGE": "0"}

SETUP_CHILD = """
import time
import numpy
t0 = time.perf_counter()
import polarsec
key = polarsec.generate_key(polarsec.reference_params(), numpy.random.default_rng({seed}))
polarsec.serialize_key(key)
print(time.perf_counter() - t0)
"""


def load_polarsec():
    if not (SRC / "polarsec" / "__init__.py").is_file():
        sys.exit(f"error: no polarsec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polarsec

    if Path(polarsec.__file__).resolve().parent != SRC / "polarsec":
        sys.exit(f"error: imported polarsec from {polarsec.__file__}, not from {SRC}")
    return polarsec


ps = load_polarsec()
from polarsec.gf2 import mul_bits_matrix  # noqa: E402  (reached inside decrypt only)

PARAMS = ps.reference_params()
N, K = PARAMS.block_length, PARAMS.num_info
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# bookkeeping of one run
# ---------------------------------------------------------------------------

@dataclass
class Run:
    seed: int
    trace: Tracer | None
    attempted: int = 0
    failed: int = 0
    op_s: list[float] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    cycle_counts: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def op(self, name: str):
        """The root span of one operation in the traced run."""
        return self.trace.op(name) if self.trace else contextlib.nullcontext()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation, failed unless ``ok``."""
        self.tally(1, 0 if ok else 1, what)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.problems.append(what)

    def verify(self, ok: bool, what: str) -> None:
        """A check that is not an operation of its own (traced replays)."""
        if not ok:
            self.problems.append(what)

    @property
    def first_cycle(self) -> bool:
        return not self.cycle_counts


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def bits_of(data: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")


class DenseReference:
    """Re-encrypts single blocks from dense matrices with float products.

    ``G'`` is checked against ``ctx.encryption_matrix()`` and the
    perturbation against ``ctx.perturbation(s)``; both are rebuilt here
    from ``polar.kernel_power`` so the check shares neither the batch
    butterfly nor the scramble gather with the path under test.
    """

    def __init__(self, key, run: Run):
        ctx = ps.CipherContext(key)
        f = ps.kernel_power(PARAMS.n).astype(np.float64)
        s = ctx.scrambler.to_dense().astype(np.float64)
        g = np.zeros((K, N))
        g[:, ctx.perm_dst] = (s @ f[ctx.plan.info0]) % 2
        self.gprime = g
        self.frozen_rows = f[ctx.plan.frozen0]
        self.perm_dst = ctx.perm_dst
        self.ctx = ctx
        run.verify(np.array_equal(g.astype(np.uint8), ctx.encryption_matrix().to_dense()),
                   "encryption_matrix() differs from the dense reference")

    def blocks(self, messages: np.ndarray, syndromes: np.ndarray) -> np.ndarray:
        pert = (syndromes.astype(np.float64) @ self.frozen_rows) % 2
        out = np.zeros_like(pert)
        out[:, self.perm_dst] = pert
        return ((messages.astype(np.float64) @ self.gprime + out) % 2).astype(np.uint8)

    def check_perturbation(self, syndrome: np.ndarray) -> bool:
        ref = (syndrome.astype(np.float64) @ self.frozen_rows) % 2
        return np.array_equal(ref.astype(np.uint8), self.ctx.perturbation(syndrome))


def reference_syndromes(key, count: int, run: Run) -> np.ndarray:
    """The first ``count`` syndromes of the key's stream; the first few are
    cross-checked against single clocks of the register."""
    stream = ps.Lfsr(PARAMS.taps, key.lfsr_state).syndromes(count)
    clocked = ps.Lfsr(PARAMS.taps, key.lfsr_state)
    ok = all(np.array_equal(clocked.next_syndrome(), stream[i]) for i in range(min(8, count)))
    run.verify(ok, "Lfsr.syndromes differs from next_syndrome")
    return stream


def check_blocks(ref: DenseReference, ct: bytes, messages: np.ndarray,
                 syndromes: np.ndarray, rows: np.ndarray) -> bool:
    got = bits_of(ct).reshape(-1, N)[rows]
    return np.array_equal(got, ref.blocks(messages[rows], syndromes[rows]))


def chunked_seal(key, data: bytes) -> bytes:
    """``seal`` in batches of ``CHECK_CHUNK`` blocks on one context: the
    same ciphertext with a small memory peak, for inputs and checks."""
    ctx = ps.CipherContext(key)
    blocks = ps.frame_plaintext(data, K)
    return ps.pack_ciphertext(np.concatenate(
        [ctx.encrypt_blocks(blocks[i:i + CHECK_CHUNK])
         for i in range(0, len(blocks), CHECK_CHUNK)]))


def chunked_open(key, payload: bytes) -> tuple[bytes, int]:
    """``open_`` in batches of ``CHECK_CHUNK`` blocks on one context."""
    ctx = ps.CipherContext(key)
    received = ps.unpack_ciphertext(payload, N)
    parts = [ctx.decrypt_blocks(received[i:i + CHECK_CHUNK])
             for i in range(0, len(received), CHECK_CHUNK)]
    messages = np.concatenate([m for m, _ in parts])
    return ps.unframe_plaintext(messages), sum(int(np.count_nonzero(a)) for _, a in parts)


# ---------------------------------------------------------------------------
# file and session calls: untraced, as the CLI makes them, and traced
# ---------------------------------------------------------------------------

def seal(key_bytes: bytes, data: bytes, start_block: int = 0) -> bytes:
    key = ps.deserialize_key(key_bytes)
    ctx = ps.CipherContext(key, start_block=start_block)
    blocks = ps.frame_plaintext(data, ctx.num_info)
    return ps.pack_ciphertext(ctx.encrypt_blocks(blocks))


def open_(key_bytes: bytes, payload: bytes, start_block: int = 0) -> tuple[bytes, int]:
    key = ps.deserialize_key(key_bytes)
    ctx = ps.CipherContext(key, start_block=start_block)
    received = ps.unpack_ciphertext(payload, ctx.block_length)
    messages, ambiguous = ctx.decrypt_blocks(received)
    return ps.unframe_plaintext(messages), int(np.count_nonzero(ambiguous))


def traced_context(t: Tracer, run: Run, key, start_block: int, of=None):
    """``CipherContext(key, start_block)`` as ``CipherContext(key)`` then a
    skip of ``start_block`` syndromes; ``of`` makes it a probe."""
    kind = "call" if of is None else "probe"
    with t.span("cipher.CipherContext", kind, of) as sp:
        ctx = ps.CipherContext(key)
    with t.probe("gf2.inverse", of=sp):
        inv = ctx.scrambler.inverse()
    with t.extra():
        run.verify(inv == ctx.scrambler_inv, "probed inverse differs")
    if start_block:
        with t.span("lfsr.skip", kind, of, blocks=start_block):
            ctx.lfsr.syndromes(start_block)
        ctx.blocks_processed = start_block
    return ctx


def traced_encrypt(t: Tracer, run: Run, ctx, messages, of=None):
    """``ctx.encrypt_blocks`` as syndromes then the batch encryption, with a
    probe of the polar transform it runs inside."""
    kind = "call" if of is None else "probe"
    b = messages.shape[0]
    with t.span("lfsr.syndromes", kind, of, blocks=b):
        syndromes = ctx.lfsr.syndromes(b)
    ctx.blocks_processed += b
    with t.span("cipher.encrypt_blocks_with_syndromes", kind, of, blocks=b) as sp:
        bits = ctx.encrypt_blocks_with_syndromes(messages, syndromes)
    with t.extra():
        x = bits[:, ctx.perm_dst]
        u = ps.polar_transform(x)  # the transform is an involution: u is its input
        run.verify(np.array_equal(u[:, ctx.plan.frozen0], syndromes),
                   "syndromes are not at the frozen positions")
    with t.probe("polar.polar_transform", of=sp, blocks=b):
        x2 = ps.polar_transform(u)
    with t.extra():
        run.verify(np.array_equal(x2, x), "probed polar_transform differs")
    return bits, syndromes


def traced_decrypt(t: Tracer, run: Run, ctx, received, of=None):
    """``ctx.decrypt_blocks`` as syndromes then the batch decryption, with
    probes of the SC decoder and the unscramble it runs inside."""
    kind = "call" if of is None else "probe"
    b = received.shape[0]
    with t.span("lfsr.syndromes", kind, of, blocks=b):
        syndromes = ctx.lfsr.syndromes(b)
    ctx.blocks_processed += b
    with t.span("cipher.decrypt_blocks_with_syndromes", kind, of, blocks=b) as sp:
        messages, ambiguous = ctx.decrypt_blocks_with_syndromes(received, syndromes)
    with t.extra():
        y = np.asarray(received, dtype=np.int8)[:, ctx.perm_dst]
        frozen = syndromes.astype(np.int8)
    with t.probe("polar.sc_decode_batch", of=sp, blocks=b) as sc:
        scrambled, amb2 = ps.sc_decode_batch(y, ctx.plan, frozen)
    with t.probe("gf2.mul_bits_matrix", of=sp, blocks=b):
        m2 = mul_bits_matrix(scrambled, ctx.scrambler_inv)
    with t.extra():
        sc.counts["resolved"] = int(b - np.count_nonzero(amb2))
        run.verify(np.array_equal(m2, messages) and np.array_equal(amb2, ambiguous),
                   "probed sc_decode_batch/mul_bits_matrix differ")
    return messages, ambiguous


def traced_seal(t: Tracer, run: Run, key_bytes: bytes, data: bytes, start_block: int = 0):
    with t.span("keys.deserialize_key"):
        key = ps.deserialize_key(key_bytes)
    ctx = traced_context(t, run, key, start_block)
    with t.span("cipher.frame_plaintext"):
        blocks = ps.frame_plaintext(data, ctx.num_info)
    bits, _ = traced_encrypt(t, run, ctx, blocks)
    with t.span("cipher.pack_ciphertext"):
        return ps.pack_ciphertext(bits)


def traced_open(t: Tracer, run: Run, key_bytes: bytes, payload: bytes, start_block: int = 0):
    with t.span("keys.deserialize_key"):
        key = ps.deserialize_key(key_bytes)
    ctx = traced_context(t, run, key, start_block)
    with t.span("cipher.unpack_ciphertext"):
        received = ps.unpack_ciphertext(payload, ctx.block_length)
    messages, ambiguous = traced_decrypt(t, run, ctx, received)
    with t.span("cipher.unframe_plaintext"):
        return ps.unframe_plaintext(messages), int(np.count_nonzero(ambiguous))


def seal_op(run: Run, key_bytes: bytes, data: bytes, start_block: int = 0):
    """``seal`` timed, or traced inside the current operation; returns
    (ciphertext, seconds)."""
    t = run.trace
    if t is None:
        return timed(seal, key_bytes, data, start_block)
    ct = traced_seal(t, run, key_bytes, data, start_block)
    if run.first_cycle:
        with t.extra():
            run.verify(seal(key_bytes, data, start_block) == ct,
                       "traced seal differs from the untraced call")
    return ct, 0.0


def open_op(run: Run, key_bytes: bytes, payload: bytes, start_block: int = 0):
    """``open_`` timed, or traced inside the current operation; returns
    (plaintext, ambiguous blocks, seconds)."""
    t = run.trace
    if t is None:
        (plain, amb), s = timed(open_, key_bytes, payload, start_block)
        return plain, amb, s
    plain, amb = traced_open(t, run, key_bytes, payload, start_block)
    if run.first_cycle:
        with t.extra():
            run.verify(open_(key_bytes, payload, start_block) == (plain, amb),
                       "traced open differs from the untraced call")
    return plain, amb, 0.0


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def reference_key():
    """The key every workload uses.  It is part of the configuration, not
    of the inputs: its scrambler's largest column weight sets the width of
    the scramble gather, and with it peak memory and encrypt time, so a key
    drawn per seed would make those vary between seeds."""
    return ps.generate_key(PARAMS, np.random.default_rng(REFERENCE_KEY_SEED))


class BulkFile:
    """One random file of ``FILE_BYTES``, the same for both directions."""

    tag = 1
    unit = "files"

    def __init__(self, run: Run):
        rng = np.random.default_rng([run.seed, self.tag, 1])
        self.key = reference_key()
        self.key_bytes = ps.serialize_key(self.key)
        self.data = rng.bytes(FILE_BYTES)
        self.messages = ps.frame_plaintext(self.data, K)
        self.syndromes = reference_syndromes(self.key, len(self.messages), run)
        self.ref = DenseReference(self.key, run)

    def sample_rows(self, run: Run) -> np.ndarray:
        rng = np.random.default_rng([run.seed, self.tag, 2, len(run.cycle_counts)])
        return rng.choice(len(self.messages), SAMPLE_BLOCKS, replace=False)

    def rate(self, run: Run) -> dict:
        return rate(FILE_BYTES / 2**20, run.op_s, "MiB/s")


class BulkEncrypt(BulkFile):
    """The file encrypted as a CLI call does it: key load, context, framing,
    batch encryption, packing."""

    def __init__(self, run: Run):
        super().__init__(run)
        self.first_ct = None

    def cycle(self, run: Run) -> dict:
        with run.op("encrypt"):
            ct, s = seal_op(run, self.key_bytes, self.data)
        run.op_s.append(s)
        ok = check_blocks(self.ref, ct, self.messages, self.syndromes, self.sample_rows(run))
        if self.first_ct is None:
            self.first_ct = ct
            ok = ok and chunked_open(self.key, ct) == (self.data, 0)
        run.check(ok and ct == self.first_ct,
                  "file ciphertext differs from the dense re-encryption or from the "
                  "first cycle's, or does not decrypt to the file")
        return {"blocks": len(self.messages), "ciphertext_bytes": len(ct)}

    def report(self, run: Run) -> dict:
        return {"encrypt_MiB_per_s": self.rate(run)}


class BulkDecrypt(BulkFile):
    """The file's ciphertext decrypted as a CLI call does it: key load,
    context, unpacking, batch decryption, unframing."""

    def __init__(self, run: Run):
        super().__init__(run)
        self.ct = chunked_seal(self.key, self.data)
        run.verify(check_blocks(self.ref, self.ct, self.messages, self.syndromes,
                                self.sample_rows(run)),
                   "input ciphertext differs from the dense re-encryption")

    def cycle(self, run: Run) -> dict:
        with run.op("decrypt"):
            plain, amb, s = open_op(run, self.key_bytes, self.ct)
        run.op_s.append(s)
        run.check(plain == self.data and amb == 0, "file did not decrypt to its plaintext")
        return {"blocks": len(self.messages), "ambiguous_blocks": amb}

    def report(self, run: Run) -> dict:
        return {"decrypt_MiB_per_s": self.rate(run)}


class SmallSessions:
    """One client sends short messages; each is sealed by a fresh session
    and opened by another, both at the stream offset after the previous
    messages, so no session reuses the stream within a cycle."""

    tag = 3
    unit = "messages"
    min_ops = 3 * MESSAGES  # so that at least 10 samples lie beyond p90

    def __init__(self, run: Run):
        rng = np.random.default_rng([run.seed, self.tag, 1])
        key = reference_key()
        self.key_bytes = ps.serialize_key(key)
        # log-uniform sizes, one per stratum, in random order
        u = (np.arange(MESSAGES) + rng.random(MESSAGES)) / MESSAGES
        sizes = np.round(MESSAGE_MIN * (MESSAGE_MAX / MESSAGE_MIN) ** u).astype(int)
        rng.shuffle(sizes)
        self.payloads = [rng.bytes(int(s)) for s in sizes]
        framed = [ps.frame_plaintext(p, K) for p in self.payloads]
        self.offsets = np.concatenate([[0], np.cumsum([len(f) for f in framed])[:-1]])
        self.total_blocks = sum(len(f) for f in framed)
        self.framed = framed
        self.syndromes = reference_syndromes(key, self.total_blocks, run)
        self.ref = DenseReference(key, run)

    def cycle(self, run: Run) -> dict:
        first = np.zeros(1, dtype=np.int64)
        for data, framed, offset in zip(self.payloads, self.framed, self.offsets):
            with run.op("message"):
                ct, seal_s = seal_op(run, self.key_bytes, data, int(offset))
                plain, amb, open_s = open_op(run, self.key_bytes, ct, int(offset))
            run.op_s.append(seal_s + open_s)
            run.check(plain == data and amb == 0
                      and check_blocks(self.ref, ct, framed, self.syndromes[offset:], first),
                      "message round trip or dense re-encryption failed")
        return {"messages": len(self.payloads), "blocks": self.total_blocks}

    def report(self, run: Run) -> dict:
        ms = [1e3 * s for s in run.op_s]
        return {
            "message_ms_p50": stat(ms, 50, "ms"),
            "message_ms_p90": stat(ms, 90, "ms"),
        }


def ambiguous_limit(rep) -> int:
    """Most ambiguous blocks one ``simulate_round_trip`` call may report.

    ``max(P_e1, P_e2)`` bounds the block erasure rate of the code from
    above.  The limit lies 6 standard deviations above the Poisson mean
    that bound gives, plus 3: a correct decoder passes it with probability
    above 1 - 1e-8, and one that flags erased blocks instead of decoding
    them fails it."""
    bound = max(p for p in (rep.p_e1, rep.p_e2) if p == p)  # p_e2 is NaN above the pool
    mean = rep.trials * bound
    return int(mean + 6 * mean ** 0.5 + 3)


class NoisyChannel:
    """``simulate_round_trip`` on the reference key over BEC(0.05)."""

    tag = 2
    unit = "blocks"

    def __init__(self, run: Run):
        self.key = reference_key()
        # the untraced run never sees a ciphertext: simulate_round_trip keeps them
        self.ref = DenseReference(self.key, run) if run.trace else None

    def rng(self, run: Run, call: int):
        return np.random.default_rng([run.seed, self.tag, 2, call])

    def cycle(self, run: Run) -> dict:
        errors = ambiguous = 0
        for call in range(SIM_CALLS):
            if run.trace is None:
                rep, s = timed(ps.simulate_round_trip, self.key, EPSILON, SIM_TRIALS,
                               self.rng(run, call))
                run.op_s.append(s)
            else:
                rep = self.traced_call(run, call)
            # acceptance 09: every wrongly decoded block was flagged ambiguous;
            # and no more blocks are flagged than the design bound allows
            failed = rep.block_errors - rep.ambiguous_blocks
            if rep.ambiguous_blocks > ambiguous_limit(rep):
                failed += rep.ambiguous_blocks
            if rep.trials != SIM_TRIALS:
                failed = SIM_TRIALS
            run.tally(SIM_TRIALS, min(failed, SIM_TRIALS),
                      f"call {call}: {rep.block_errors} block errors, "
                      f"{rep.ambiguous_blocks} flagged ambiguous")
            errors += rep.block_errors
            ambiguous += rep.ambiguous_blocks
        run.sample("block_errors", errors)
        return {"blocks": SIM_CALLS * SIM_TRIALS, "block_errors": errors,
                "ambiguous_blocks": ambiguous}

    def traced_call(self, run: Run, call: int):
        """The call itself, then its work again through the public calls it
        is built from, on the same inputs, as probes of it."""
        t = run.trace
        with t.op("simulate"):
            with t.span("analysis.simulate_round_trip", blocks=SIM_TRIALS) as sp:
                rep = ps.simulate_round_trip(self.key, EPSILON, SIM_TRIALS, self.rng(run, call))
            rng = self.rng(run, call)
            sender = traced_context(t, run, self.key, 0, of=sp)
            receiver = traced_context(t, run, self.key, 0, of=sp)
            with t.extra():
                msgs = rng.integers(0, 2, size=(SIM_TRIALS, K), dtype=np.uint8)
            ct, syndromes = traced_encrypt(t, run, sender, msgs, of=sp)
            with t.probe("polar.bec_transmit", of=sp) as bec:
                received = ps.bec_transmit(ct, EPSILON, rng)
            decoded, amb = traced_decrypt(t, run, receiver, received, of=sp)
            with t.extra():
                bec.counts.update(bits=int(received.size),
                                  erased=int(np.count_nonzero(received < 0)))
                errors = int(np.count_nonzero((decoded != msgs).any(axis=1) | amb))
                run.verify(errors == rep.block_errors
                           and int(np.count_nonzero(amb)) == rep.ambiguous_blocks,
                           "replayed simulation differs from simulate_round_trip")
                if call == 0 and run.first_cycle:
                    rows = np.arange(8)
                    expect = self.ref.blocks(msgs[rows], syndromes[rows])
                    run.verify(np.array_equal(ct[rows], expect)
                               and self.ref.check_perturbation(syndromes[0]),
                               "dense re-encryption of simulated blocks failed")
        return rep

    def report(self, run: Run) -> dict:
        errors = sum(run.samples.get("block_errors", []))
        blocks = run.attempted
        return {
            "sim_blocks_per_s": rate(SIM_TRIALS, run.op_s, "blocks/s"),
            "sim_block_error_rate": {"value": errors / blocks if blocks else None,
                                     "unit": "ratio", "samples": blocks,
                                     "base": f"{errors}/{blocks} blocks"},
        }


class TracedOracle(ps.EncryptionOracle):
    """The LFSR oracle with ``ctx.encrypt`` split into its two public
    calls, each recorded as a leaf span."""

    def __init__(self, ctx, tracer: Tracer):
        super().__init__(ctx, mode="lfsr")
        self.session = ctx
        self.tracer = tracer

    def encrypt(self, message):
        self.queries += 1
        ctx, t = self.session, self.tracer
        t0 = time.perf_counter()
        syndrome = ctx.lfsr.next_syndrome()
        t1 = time.perf_counter()
        bits = ctx.encrypt_with_syndrome(message, syndrome)
        t2 = time.perf_counter()
        ctx.blocks_processed += 1
        t.leaf("lfsr.next_syndrome", t1 - t0)
        t.leaf("cipher.encrypt_with_syndrome", t2 - t1)
        return bits


def traced_attack(run: Run, inst, budget, **kwargs):
    """``rn_attack`` on a traced oracle, with a probe of the error-space
    collection it runs inside."""
    t = run.trace
    with t.span("attacks.rn_attack") as sp:
        result = ps.rn_attack(TracedOracle(inst.context(), t), collection_budget=budget,
                              **kwargs)
    sp.counts.update(queries=result.queries_used,
                     candidates_examined=result.candidates_examined)
    probe_oracle = TracedOracle(inst.context(), t)
    with t.probe("attacks.collect_error_space", of=sp) as collect:
        # a saturated collection stops at the same query under any larger budget
        space = ps.collect_error_space(probe_oracle, np.zeros(inst.num_info, np.uint8),
                                       budget or 1 << 40)
    with t.extra():
        collect.counts.update(queries=space.queries_used, distinct=int(space.ciphertexts.size))
        run.verify(np.array_equal(space.differences, result.candidate_error_space),
                   "probed collect_error_space differs")
    return result


def curve_n(gap: int) -> int:
    """log2 block length the cost curve uses for a gap (smallest n >= 4
    leaving K >= 1)."""
    n = 4
    while (1 << n) - gap < 1:
        n += 1
    return n


class ToyRecover:
    """The attack cost curve over every accepted gap; every point must
    recover the key."""

    tag = 4
    unit = "attack runs"

    def __init__(self, run: Run):
        pass

    def cycle(self, run: Run) -> dict:
        if run.trace is None:
            points, s = timed(ps.attack_cost_curve, CURVE_GAPS, run.seed)
            run.op_s.append(s)
            curve = [(p.gap, p.queries, p.candidates_examined, p.recovered) for p in points]
        else:
            with run.op("curve"):
                curve = [self.traced_point(run, gap) for gap in CURVE_GAPS]
        for gap, _, _, recovered in curve:
            run.check(recovered, f"curve point at gap {gap} not recovered")
        run.sample("queries", sum(q for _, q, _, _ in curve))
        return {"curve": [c[:3] for c in curve]}

    def traced_point(self, run: Run, gap: int):
        """One point of ``attack_cost_curve``, through the calls it makes."""
        t = run.trace
        n = curve_n(gap)
        with t.span("attacks.build_toy_instance"):
            inst = ps.build_toy_instance(n, (1 << n) - gap, seed=run.seed + gap)
        result = traced_attack(run, inst, None, rng=ps.derive_rng(run.seed + gap, "curve-verify"))
        with t.extra():
            recovered = bool(result.verified and result.recovered_gprime == inst.true_matrix)
            if run.first_cycle:
                (p,) = ps.attack_cost_curve((gap,), run.seed)
                run.verify((p.queries, p.candidates_examined, p.recovered)
                           == (result.queries_used, result.candidates_examined, recovered),
                           f"traced curve point at gap {gap} differs from attack_cost_curve")
        return gap, result.queries_used, result.candidates_examined, recovered

    def report(self, run: Run) -> dict:
        queries = run.samples.get("queries", [])
        return {
            "attack_recover_s": stat(run.op_s, 50, "s"),
            "attack_queries": {"value": queries[0] if queries else None, "unit": "count",
                               "samples": len(queries)},
        }


class ToyRefute:
    """The capped-budget attack at N - K = 20, which must give up."""

    tag = 5
    unit = "attack runs"

    def __init__(self, run: Run):
        self.rng_seed = [run.seed, self.tag, 1]

    def refute(self, run: Run):
        inst = ps.build_toy_instance(CAPPED["n"], CAPPED["num_info"], seed=run.seed)
        return ps.rn_attack(inst.oracle(mode="lfsr"), collection_budget=CAPPED["budget"],
                            max_gap=CAPPED["max_gap"], rng=np.random.default_rng(self.rng_seed))

    def cycle(self, run: Run) -> dict:
        t = run.trace
        if t is None:
            result, s = timed(self.refute, run)
            run.op_s.append(s)
        else:
            with t.op("refute"):
                with t.span("attacks.build_toy_instance"):
                    inst = ps.build_toy_instance(CAPPED["n"], CAPPED["num_info"], seed=run.seed)
                result = traced_attack(run, inst, CAPPED["budget"], max_gap=CAPPED["max_gap"],
                                       rng=np.random.default_rng(self.rng_seed))
            if run.first_cycle:
                plain = self.refute(run)
                run.verify((plain.queries_used, plain.candidates_examined, plain.note)
                           == (result.queries_used, result.candidates_examined, result.note)
                           and np.array_equal(plain.candidate_error_space,
                                              result.candidate_error_space),
                           "traced capped run differs from the untraced call")
        run.check(not result.verified and result.note == CAPPED_NOTE
                  and result.queries_used == CAPPED["budget"],
                  f"capped run did not give up as expected: {result.note!r}")
        return {"queries": result.queries_used, "candidates": result.candidates_examined,
                "differences": int(result.candidate_error_space.size)}

    def report(self, run: Run) -> dict:
        return {"attack_refute_s": stat(run.op_s, 50, "s")}


WORKLOADS = {
    "bulk_encrypt": BulkEncrypt,
    "bulk_decrypt": BulkDecrypt,
    "noisy_channel": NoisyChannel,
    "small_sessions": SmallSessions,
    "toy_recover": ToyRecover,
    "toy_refute": ToyRefute,
}


# ---------------------------------------------------------------------------
# statistics and metrics
# ---------------------------------------------------------------------------

def stat(values: list[float], pct: int, unit: str) -> dict:
    if not values:
        return {"value": None, "unit": unit, "samples": 0}
    if pct == 50:
        value = statistics.median(values)
    else:
        value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return {"value": value, "unit": unit, "samples": len(values)}


def rate(work: float, seconds: list[float], unit: str) -> dict:
    if not seconds:
        return {"value": None, "unit": unit, "samples": 0}
    return {"value": work / statistics.median(seconds), "unit": unit, "samples": len(seconds)}


def setup_seconds() -> list[float]:
    """Import polarsec, generate and serialize the reference key, each time
    in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD.format(seed=REFERENCE_KEY_SEED)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measured_peak_rss(workload: str, seed: int) -> float:
    """Peak RSS of a fresh process, with ``PEAK_RSS_ENV``, that builds the
    workload's inputs and runs one cycle of it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--peak-rss"],
        cwd=ROOT, env={**os.environ, **PEAK_RSS_ENV}, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


# a ``<span>.<count>_frac`` metric divides the count by this one
FRACTION_BASE = {"resolved": "blocks", "erased": "bits", "distinct": "queries"}


def per_layer_metrics(acc, cycles: int, setup_acc) -> dict:
    """Every ``per_layer`` metric of BENCHMARK.json, read off the span
    accounting by the form of its name: ``<span>.s`` self seconds,
    ``<span>.calls`` calls and ``<span>.<count>`` a count, each per cycle
    plus the set-up spans of the run; ``<span>.<count>_frac`` that count
    over its base; ``trace.op_ms_p50`` the median traced operation."""
    m = {}
    for spec in BENCH["per_layer"]:
        name = spec["name"]
        span, _, what = name.rpartition(".")
        if name == "trace.op_ms_p50":
            value = 1e3 * statistics.median(acc.op_traced_s.values())
        elif what == "s":
            value = acc.self_s.get(span, 0.0) / cycles + setup_acc.self_s.get(span, 0.0)
        elif what == "calls":
            value = acc.calls.get(span, 0) / cycles
        elif what.endswith("_frac"):
            count = what.removesuffix("_frac")
            c = acc.counts.get(span, {})
            base = c.get(FRACTION_BASE[count], 0)
            value = c.get(count, 0) / base if base else 0.0
        else:
            value = acc.counts.get(span, {}).get(what, 0) / cycles
        m[name] = {"value": value, "unit": spec["unit"]}
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_cycle(workload, run: Run) -> None:
    try:
        counts = workload.cycle(run)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        run.check(False, "cycle raised")
        counts = {"raised": True}
    if run.cycle_counts and counts != run.cycle_counts[0]:
        run.verify(False, f"cycle {len(run.cycle_counts)} counts {counts} differ "
                          f"from the first cycle's {run.cycle_counts[0]}")
    run.cycle_counts.append(counts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--peak-rss", action="store_true",
                    help="build the inputs, run one cycle and print only the peak RSS in MiB")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    warnings.simplefilter("ignore", ps.PartialErrorSpaceWarning)

    if args.peak_rss:
        run = Run(seed=args.seed, trace=None)
        run_cycle(WORKLOADS[args.workload](run), run)
        print(peak_rss_mib())
        return 0

    traced = bool(args.trace)
    setup_s = [] if traced else setup_seconds()
    rss = None if traced else measured_peak_rss(args.workload, args.seed)
    run = Run(seed=args.seed, trace=Tracer() if traced else None)
    setup_trace = None
    if traced:  # the set-up calls, traced once, in this process
        setup_trace = Tracer()
        with setup_trace.op("setup"):
            with setup_trace.span("keys.generate_key"):
                key = reference_key()
            with setup_trace.span("keys.serialize_key"):
                ps.serialize_key(key)
    workload = WORKLOADS[args.workload](run)

    start = time.perf_counter()
    while True:
        run_cycle(workload, run)
        if (time.perf_counter() - start >= args.seconds
                and len(run.op_s) >= getattr(workload, "min_ops", 0)):
            break
    measured_s = time.perf_counter() - start
    cycles = len(run.cycle_counts)

    if traced:
        acc = account(run.trace.spans)
        for problem in acc.mismatches:
            run.verify(False, problem)
        metrics = per_layer_metrics(acc, cycles, account(setup_trace.spans))
        SPANS_DIR.mkdir(exist_ok=True)
        with open(SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for s in setup_trace.spans + run.trace.spans:
                fh.write(json.dumps(s.to_json()) + "\n")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_MiB": {"value": rss, "unit": "MiB"},
            "op_ms_p50": {"value": 1e3 * statistics.median(run.op_s), "unit": "ms"},
        }

    named = {} if traced else workload.report(run)
    named["fail_frac"] = {"value": run.failed / run.attempted if run.attempted else None,
                          "unit": "ratio", "samples": run.attempted,
                          "base": f"{run.failed}/{run.attempted} {workload.unit}"}
    if not traced:
        named["setup_s"] = stat(setup_s, 50, "s")
        named["peak_rss_MiB"] = {"value": rss, "unit": "MiB", "samples": 1}
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds_measured": measured_s, "cycles": cycles, "ops": len(run.op_s),
        "cycle_counts": run.cycle_counts[0], "named_metrics": named,
        "problems": run.problems[:20],
        "provenance": {
            "commit": commit(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "params": {"N": N, "K": K, "l": PARAMS.l, "mu_s": PARAMS.mu_s,
                       "pool": PARAMS.pool, "epsilon": PARAMS.epsilon},
        },
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not run.problems, "attempted": run.attempted,
        "failed": run.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
