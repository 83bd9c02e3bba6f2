"""Join buckets and spill partitions do not depend on ``PYTHONHASHSEED``.

``hash(str)`` is salted per process and ``hash(None)`` comes from an
address, so a join keyed on a ``CHAR`` column charged different buckets --
different cache lines, different cycle counts -- from one process to the
next.  ``hash(nan)`` comes from the float object's address too, so a NaN
key moved from run to run even inside one process.  ``key_hash`` is the one
hash every bucket and partition is chosen by: numbers hash exactly as
``hash`` does (no committed count moves), text and bytes through
``zlib.crc32``, ``None`` and every NaN each to a constant.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

from repro.engine import Database, Session
from repro.execution.kernels import (ARRAY_KERNELS, PYTHON_KERNELS, key_hash,
                                     spill_partition_of)
from repro.query import JoinQuery, count_star
from repro.storage.schema import ColumnType, vector_of
from repro.systems import SYSTEM_B

SRC = str(Path(__file__).resolve().parents[1] / "src")

NUMBERS = (0, 1, -1, -2, 7, 2 ** 61 - 2, 2 ** 61 - 1, -(2 ** 61), 2 ** 70, True,
           False, 0.0, -0.0, 1.5, -2.25, 1e300, float("inf"))


def test_numbers_hash_as_before():
    for key in NUMBERS:
        assert key_hash(key) == hash(key), key
    keys = list(range(-50, 50))
    assert PYTHON_KERNELS.bucket_indices(keys, 13) == [hash(k) % 13 for k in keys]
    assert ARRAY_KERNELS.bucket_indices(vector_of(keys, "<i8"), 13).tolist() == \
        [hash(k) % 13 for k in keys]


def test_text_bytes_and_none_are_process_independent():
    assert key_hash("key7") == zlib.crc32(b"key7")
    assert key_hash(b"key7") == zlib.crc32(b"key7")
    assert key_hash("\ud800") == zlib.crc32("\ud800".encode("utf-8", "surrogatepass"))
    assert key_hash(None) == key_hash(None) != key_hash(0)
    keys = ["a", "bb", None, "a"]
    assert PYTHON_KERNELS.bucket_indices(keys, 7) == [key_hash(k) % 7 for k in keys]
    assert PYTHON_KERNELS.spill_partitions(keys, 2, 5) == [
        spill_partition_of(k, 2, 5) for k in keys]
    vector = vector_of(keys, object)
    assert ARRAY_KERNELS.bucket_indices(vector, 7).tolist() == [
        key_hash(k) % 7 for k in keys]
    assert ARRAY_KERNELS.spill_partitions(vector, 2, 5).tolist() == [
        spill_partition_of(k, 2, 5) for k in keys]


def test_every_nan_hashes_alike():
    first, second = float("nan"), float("inf") - float("inf")
    assert first is not second and hash(first) != hash(second)
    assert key_hash(first) == key_hash(second) != key_hash(0.0)
    for keys in ([first, second], vector_of([first, second], "<f8")):
        for kernels in (PYTHON_KERNELS, ARRAY_KERNELS):
            if kernels is ARRAY_KERNELS and isinstance(keys, list):
                continue  # the array backend takes arrays only
            buckets = list(kernels.bucket_indices(keys, 1 << 20))
            partitions = list(kernels.spill_partitions(keys, 1, 1 << 20))
            assert buckets[0] == buckets[1] == key_hash(first) % (1 << 20)
            assert partitions[0] == partitions[1] == spill_partition_of(
                first, 1, 1 << 20)


def _float_key_join():
    """A vectorized hash join on a FLOAT64 key column that holds NaNs."""
    db = Database()
    for name, count in (("P", 300), ("Q", 60)):
        db.create_table(name, [("k", ColumnType.FLOAT64),
                               ("v", ColumnType.INT32)], record_size=64)
        db.load(name, [(float("nan") if i % 3 == 0 else float(i % 20), i)
                       for i in range(count)])
    with Session(db, SYSTEM_B, os_interference=None,
                 engine="vectorized") as session:
        result = session.execute(JoinQuery("P", "Q", "k", "k", (count_star(),)),
                                 warmup_runs=0)
        return result.rows, dict(result.counters.user)


def test_nan_key_join_counts_repeat():
    first, second = _float_key_join(), _float_key_join()
    assert first[0] == second[0]
    assert first[1] == second[1]


#: A CHAR-key join of 400 x 40 rows on System B, in the tuple engine, the
#: vectorized engine and the vectorized engine under a budget that spills.
_SCRIPT = r"""
import json
from repro.engine import Database, Session
from repro.query import JoinQuery, count_star
from repro.storage.schema import Column, ColumnType, Schema
from repro.systems import SYSTEM_B

def build():
    db = Database()
    for name, count in (("P", 400), ("Q", 40)):
        schema = Schema.of(Column("k", ColumnType.CHAR, width=8),
                           Column("v", ColumnType.INT32), name=name)
        db.catalog.create_table(name, schema, record_size=100).insert_many(
            *schema.transpose((f"key{i % 40}", i) for i in range(count)))
    return db

query = JoinQuery("P", "Q", "k", "k", (count_star(),))
out = {}
for arm, knobs in (("tuple", {}), ("vectorized", {"engine": "vectorized"}),
                   ("spill", {"engine": "vectorized",
                              "memory_budget_bytes": 1024})):
    with Session(build(), SYSTEM_B, os_interference=None, **knobs) as session:
        result = session.execute(query, warmup_runs=0)
        out[arm] = [dict(result.counters.user), result.rows,
                    dict(session.context.io_stats)]
print(json.dumps(out, sort_keys=True))
"""


def _run(seed: str) -> dict:
    done = subprocess.run([sys.executable, "-c", _SCRIPT], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC,
                                   PYTHONHASHSEED=seed))
    return json.loads(done.stdout)


def test_char_key_join_counts_are_the_same_under_every_hash_seed():
    first, second = _run("1"), _run("2")
    assert first["spill"][2]["page_writes"] > 0, "the budgeted join must spill"
    for arm in ("tuple", "vectorized", "spill"):
        assert first[arm][1] == [{"count(*)": 400}]
        assert first[arm] == second[arm], arm
