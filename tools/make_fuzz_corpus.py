#!/usr/bin/env python3
"""Generates the deterministic seed corpora for the fuzz harnesses.

Writes one directory per harness under the output root:

  count_min/       valid CountMinSketch serializations + malformed variants
  count_sketch/    same for CountSketch
  bloom_filter/    same for BloomFilter
  ams_sketch/      same for AmsSketch
  hashed_recovery/ structured (decoder, geometry, y-vector) inputs for the
                   HashedRecovery and BitTestRecovery decoders
  server_frame/    sketchwire/1 frames (valid requests + framing violations)

The byte layouts mirror src/common/byte_buffer.h: little-endian u64 words,
header (magic, geometry, geometry, seed) then payload words. Seeds include
well-formed buffers (so the round-trip path is exercised from the first
execution) and the malformed classes the deserializers must reject. All
content is fixed — no randomness — so CI corpus runs are reproducible.

Usage: tools/make_fuzz_corpus.py OUTPUT_DIR
"""

import struct
import sys
from pathlib import Path

MAGICS = {
    "count_min": 0x534B434D494E3031,  # "SKCMIN01"
    "count_sketch": 0x534B43534B543031,  # "SKCSKT01"
    "bloom_filter": 0x534B424C4F4F4D31,  # "SKBLOOM1"
    "ams_sketch": 0x534B414D53303031,  # "SKAMS001"
}


# Payload caps from src/server/protocol.h.
K_MAX_NAME_BYTES = 256
K_MAX_BATCH_UPDATES = 1 << 18
K_MAX_BATCH_QUERY_ITEMS = 1 << 16
K_MAX_BLOB_BYTES = (8 << 20) - 1024


def u64(*values):
    return b"".join(struct.pack("<Q", v & (2**64 - 1)) for v in values)


def i64(*values):
    return b"".join(struct.pack("<q", v) for v in values)


def counter_sketch_buffer(magic, width, depth, seed, counters=None):
    if counters is None:
        counters = [(i * 37 - 8) for i in range(width * depth)]
    return u64(magic, width, depth, seed) + i64(*counters)


def bloom_buffer(magic, num_bits, num_hashes, seed, words=None):
    num_words = (num_bits + 63) // 64
    if words is None:
        words = [0x0123456789ABCDEF ^ (i * 0x1111) for i in range(num_words)]
    return u64(magic, num_bits, num_hashes, seed) + u64(*words)


def splitmix64_once(x):
    """common/prng.h SplitMix64Once: the seed derivation of composites."""
    mask = 2**64 - 1
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def summary_buffer(log_universe, width, depth, verify_width, seed):
    """A StreamSummary buffer whose components carry the geometry and
    derived seeds StreamSummary(options) gives them (zeroed counters)."""
    levels = b"".join(
        counter_sketch_buffer(MAGICS["count_min"], width, depth,
                              splitmix64_once(seed + 1000 * level),
                              [0] * (width * depth))
        for level in range(1, log_universe + 1))
    dyadic = u64(0x534B4459434D3031, log_universe, 0, width, depth) + levels
    verifier = counter_sketch_buffer(MAGICS["count_sketch"], verify_width,
                                     depth | 1, ~seed,
                                     [0] * (verify_width * (depth | 1)))
    ams = counter_sketch_buffer(MAGICS["ams_sketch"], width, depth | 1,
                                seed + 0x5EED, [0] * (width * (depth | 1)))
    return u64(0x534B53554D4D3031, log_universe, width, depth, verify_width,
               seed, len(dyadic) // 8, len(verifier) // 8,
               len(ams) // 8) + dyadic + verifier + ams


def hashed_recovery_input(variant, width, depth, dimension, k, seed, y):
    header = bytes(
        [variant, (width - 1) % 256, (depth - 1) % 256, (dimension - 1) % 256,
         k % 256]
    ) + u64(seed)
    return header + b"".join(struct.pack("<d", v) for v in y)


def write(directory, name, blob):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_bytes(blob)


def counter_seeds(out, target, magic):
    base = counter_sketch_buffer(magic, 8, 3, 42)
    write(out / target, "valid_8x3", base)
    write(out / target, "valid_1x1", counter_sketch_buffer(magic, 1, 1, 0))
    write(out / target, "valid_64x1",
          counter_sketch_buffer(magic, 64, 1, 7))
    write(out / target, "truncated_header", base[:20])
    write(out / target, "truncated_payload", base[:-12])
    write(out / target, "inflated_tail", base + b"\x00" * 16)
    # Geometry claims 2^32 x 2^32 counters: the product wraps to zero in
    # unchecked u64 arithmetic — must be rejected before any allocation.
    write(out / target, "geometry_overflow",
          u64(magic, 2**32, 2**32, 1))
    write(out / target, "zero_geometry", u64(magic, 0, 0, 1))
    wrong_magic = bytearray(base)
    wrong_magic[0] ^= 0xFF
    write(out / target, "wrong_magic", bytes(wrong_magic))
    write(out / target, "empty", b"")


def bloom_seeds(out):
    magic = MAGICS["bloom_filter"]
    base = bloom_buffer(magic, 256, 4, 99)
    write(out / "bloom_filter", "valid_256b", base)
    write(out / "bloom_filter", "valid_1b", bloom_buffer(magic, 1, 1, 3))
    write(out / "bloom_filter", "truncated", base[:-8])
    write(out / "bloom_filter", "inflated", base + b"\xff" * 8)
    write(out / "bloom_filter", "huge_hash_count",
          bloom_buffer(magic, 64, 2**20, 1))
    write(out / "bloom_filter", "bit_count_overflow",
          u64(magic, 2**64 - 1, 2, 1))
    write(out / "bloom_filter", "zero_bits", u64(magic, 0, 1, 1))


def hashed_recovery_seeds(out):
    d = out / "hashed_recovery"
    # width=4, depth=2 -> correct y length is 8.
    write(d, "valid_count_sketch",
          hashed_recovery_input(0, 4, 2, 16, 4, 11,
                                [float(i) - 3.5 for i in range(8)]))
    write(d, "valid_count_min",
          hashed_recovery_input(1, 4, 2, 16, 4, 11,
                                [float(i) for i in range(8)]))
    write(d, "wrong_length_y",
          hashed_recovery_input(0, 4, 2, 16, 4, 11, [1.0, 2.0, 3.0]))
    write(d, "nan_inf_y",
          hashed_recovery_input(0, 2, 2, 8, 2, 5,
                                [float("nan"), float("inf"),
                                 float("-inf"), 0.0]))
    write(d, "k_zero",
          hashed_recovery_input(0, 2, 1, 4, 0, 1, [1.0, -1.0]))
    write(d, "empty", b"")
    # Byte 0 bit 1 picks BitTestRecovery: dimension 16 + 1 = 17 has
    # log n = 5, so width=4, depth=2 needs 4 * 2 * 6 = 48 measurements.
    # Bucket 0 of each row holds a clean bit-test pattern for index 9
    # (cells at y[(row*4 + bucket)*6 + cell]), so decoding reads the index
    # bits and reaches the decoder's own hash check.
    spike = [0.0] * 48
    for row in range(2):
        cells = (row * 4) * 6
        spike[cells] = 2.5
        for bit in range(5):
            if (9 >> bit) & 1:
                spike[cells + 1 + bit] = 2.5
    write(d, "bit_test_valid",
          hashed_recovery_input(2, 4, 2, 16, 8, 11, spike))
    write(d, "bit_test_wrong_length_y",
          hashed_recovery_input(2, 4, 2, 16, 8, 11, [1.0, 2.0, 3.0]))
    write(d, "bit_test_nan_inf_y",
          hashed_recovery_input(3, 1, 1, 1, 4, 5,
                                [float("nan"), float("-inf")]))
    write(d, "bit_test_zero_rounds",
          hashed_recovery_input(2, 4, 2, 16, 0, 11, spike))


def wire_frame(opcode, payload=b"", version=1, reserved=0, declared_len=None):
    """sketchwire/1 frame: u32 payload length, u8 opcode, u8 version,
    u16 reserved, then payload (see src/server/protocol.h)."""
    if declared_len is None:
        declared_len = len(payload)
    return struct.pack("<IBBH", declared_len, opcode, version,
                       reserved) + payload


def wire_string(name):
    raw = name.encode()
    return struct.pack("<H", len(raw)) + raw


def server_frame_seeds(out):
    d = out / "server_frame"
    # Well-formed requests: a create + ingest + query conversation, so the
    # service dispatch path is covered from the first execution.
    create = wire_string("f") + bytes([1]) + u64(64, 2, 7, 0, 0)
    ingest = wire_string("f") + struct.pack("<I", 2) + u64(3) + i64(5) + \
        u64(9) + i64(-1)
    query = wire_string("f") + u64(3)
    write(d, "conversation",
          wire_frame(0x02, create) + wire_frame(0x04, ingest) +
          wire_frame(0x05, query))
    # Conversations whose deltas sit at the int64_t limits, each queried
    # point-wise and batched: an even-depth CountSketch median of two
    # INT64_MAX rows, a StreamSummary estimate of INT64_MIN, and a sharded
    # CountMin fed both limits.
    int64_max, int64_min = 2**63 - 1, -2**63
    extremes = {
        "count_sketch_depth2": (2, (64, 2, 7, 0, 0)),
        "stream_summary": (4, (8, 64, 3, 128, 7)),
        "sharded_count_min": (5, (64, 2, 7, 4, 0)),
    }
    for name, (sketch_type, params) in extremes.items():
        sketch = wire_string("x")
        write(d, "extreme_deltas_" + name,
              wire_frame(0x02, sketch + bytes([sketch_type]) + u64(*params)) +
              wire_frame(0x04, sketch + struct.pack("<I", 1) + u64(1) +
                         i64(int64_max)) +
              wire_frame(0x05, sketch + u64(1)) +
              wire_frame(0x04, sketch + struct.pack("<I", 2) + u64(1) +
                         i64(int64_min) + u64(2) + i64(int64_min)) +
              wire_frame(0x05, sketch + u64(2)) +
              wire_frame(0x0E, sketch + struct.pack("<I", 2) + u64(1, 2)))
    write(d, "ping", wire_frame(0x01))
    write(d, "snapshot_missing", wire_frame(0x08, wire_string("ghost")))
    write(d, "restore_tiny_blob",
          wire_frame(0x09, wire_string("r") + bytes([1]) +
                     struct.pack("<I", 4) + b"\x00\x01\x02\x03"))
    # A valid snapshot of every served family, restored and then read
    # back: the sweep's bit flips and truncations reach every header field
    # each TryDeserialize checks, through the service.
    restores = {
        "count_min": (1, counter_sketch_buffer(MAGICS["count_min"], 4, 2, 7)),
        "count_min_pow2": (1, u64(0x534B434D494E3032, 4, 2, 7, 1) +
                           i64(*range(8))),
        "count_sketch": (2, counter_sketch_buffer(MAGICS["count_sketch"], 4,
                                                  2, 7)),
        "bloom": (3, bloom_buffer(MAGICS["bloom_filter"], 128, 3, 7)),
        "stream_summary": (4, summary_buffer(1, 2, 1, 2, 7)),
        "sharded_count_min": (5, counter_sketch_buffer(MAGICS["count_min"],
                                                       4, 2, 7)),
    }
    # The server restores a blob where it lies in the payload: a one-byte
    # name puts it at offset 8, a two-byte name at the odd offset 9.
    for name, (sketch_type, blob) in restores.items():
        for prefix, sketch in (("restore_", "r"),
                               ("restore_odd_offset_", "ro")):
            write(d, prefix + name,
                  wire_frame(0x09, wire_string(sketch) + bytes([sketch_type]) +
                             struct.pack("<I", len(blob)) + blob) +
                  wire_frame(0x08, wire_string(sketch)))
    # A restore frame larger than two of the decoder's 64 KiB windows,
    # untraced and traced (flag bit 0 plus a trailing 8-byte id), then a
    # snapshot of it: the harness drains frames after the first half of
    # the input, so more than a window of this frame is still to come and
    # the rest is received in place, straight into the frame's payload.
    big = counter_sketch_buffer(MAGICS["count_min"], 4352, 4, 7)
    big_restore = wire_string("w") + bytes([1]) + \
        struct.pack("<I", len(big)) + big
    snapshot_w = wire_frame(0x08, wire_string("w"))
    write(d, "restore_in_place", wire_frame(0x09, big_restore) + snapshot_w)
    write(d, "restore_in_place_traced",
          wire_frame(0x09, big_restore + u64(0x0123456789ABCDEF),
                     reserved=1) + snapshot_w)
    # Framing violations the decoder must reject from the header alone.
    write(d, "length_overflow", wire_frame(0x01, declared_len=2**32 - 1))
    write(d, "wrong_version", wire_frame(0x01, version=9))
    write(d, "reserved_bits", wire_frame(0x01, reserved=0xBEEF))
    write(d, "unknown_opcode", wire_frame(0x7F))
    # Payload malformations behind a valid header.
    write(d, "truncated_payload", wire_frame(0x05, wire_string("f"))[:-3])
    write(d, "ingest_count_lies",
          wire_frame(0x04, wire_string("f") + struct.pack("<I", 1000)))
    write(d, "string_past_end",
          wire_frame(0x05, struct.pack("<H", 500) + b"ab"))
    # Each length-prefix boundary the payload reader guards, one step on
    # either side: the name cap, a blob length against the bytes present,
    # and the ingest / batch-query counts against their caps and against
    # the payload. Every seed runs after a create of "f" so the accepted
    # side reaches the service.
    create_f = wire_frame(0x02, create)
    for length in (K_MAX_NAME_BYTES, K_MAX_NAME_BYTES + 1):
        name = wire_string("n" * length)
        write(d, f"name_{length}_bytes",
              wire_frame(0x02, name + bytes([1]) + u64(64, 2, 7, 0, 0)) +
              wire_frame(0x05, name + u64(3)))
    blob = counter_sketch_buffer(MAGICS["count_min"], 4, 2, 7)
    for name, sketch, declared in (
            ("blob_length_exact", "r", len(blob)),
            ("blob_length_one_past", "r", len(blob) + 1),
            ("blob_length_one_past_odd_offset", "ro", len(blob) + 1),
            ("blob_length_over_cap", "r", K_MAX_BLOB_BYTES + 1)):
        write(d, name,
              wire_frame(0x09, wire_string(sketch) + bytes([1]) +
                         struct.pack("<I", declared) + blob))
    update = u64(3) + i64(5)
    write(d, "ingest_count_over_cap",
          create_f + wire_frame(0x04, wire_string("f") +
                                struct.pack("<I", K_MAX_BATCH_UPDATES + 1) +
                                update))
    write(d, "ingest_count_one_past_payload",
          create_f + wire_frame(0x04, wire_string("f") +
                                struct.pack("<I", 3) + update * 2))
    # An ingest frame whose payload is one decoder window plus one byte
    # (an 11-byte name and 4095 updates: 2 + 11 + 4 + 16 * 4095 = 65537),
    # as the served 4096-update frames are just over one window, and the
    # same frame with a count one update past the bytes present.
    window_name = wire_string("w" * 11)
    window_updates = b"".join(u64(i * 0x9E3779B1) + i64(i % 7 - 3)
                              for i in range(4095))
    window_ingest = window_name + struct.pack("<I", 4095) + window_updates
    assert len(window_ingest) == 64 * 1024 + 1
    create_w = wire_frame(0x02, window_name + bytes([1]) +
                          u64(64, 2, 7, 0, 0))
    write(d, "ingest_payload_window_plus_one",
          create_w + wire_frame(0x04, window_ingest) +
          wire_frame(0x05, window_name + u64(3)))
    write(d, "ingest_window_count_one_past_payload",
          create_w + wire_frame(0x04, window_name + struct.pack("<I", 4096) +
                                window_updates))
    write(d, "batch_query_count_over_cap",
          create_f + wire_frame(0x0E, wire_string("f") +
                                struct.pack("<I", K_MAX_BATCH_QUERY_ITEMS + 1) +
                                u64(3)))
    write(d, "batch_query_count_one_past_payload",
          create_f + wire_frame(0x0E, wire_string("f") +
                                struct.pack("<I", 3) + u64(3, 9)))
    write(d, "trailing_byte", create_f + wire_frame(0x05, query + b"\x00"))
    write(d, "empty", b"")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(sys.argv[1])
    for target in ("count_min", "count_sketch", "ams_sketch"):
        counter_seeds(out, target, MAGICS[target])
    bloom_seeds(out)
    hashed_recovery_seeds(out)
    server_frame_seeds(out)
    total = sum(1 for p in out.rglob("*") if p.is_file())
    print(f"make_fuzz_corpus: wrote {total} seed files under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
