"""Join buckets and spill partitions do not depend on ``PYTHONHASHSEED``.

``hash(str)`` is salted per process and ``hash(None)`` comes from an
address, so a join keyed on a ``CHAR`` column charged different buckets --
different cache lines, different cycle counts -- from one process to the
next.  ``key_hash`` is the one hash every bucket and partition is chosen by:
numbers hash exactly as ``hash`` does (no committed count moves), text and
bytes through ``zlib.crc32``, ``None`` to a constant.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

from repro.execution.kernels import (ARRAY_KERNELS, PYTHON_KERNELS, key_hash,
                                     spill_partition_of)

SRC = str(Path(__file__).resolve().parents[1] / "src")

NUMBERS = (0, 1, -1, -2, 7, 2 ** 61 - 2, 2 ** 61 - 1, -(2 ** 61), 2 ** 70, True,
           False, 0.0, -0.0, 1.5, -2.25, 1e300, float("inf"))


def test_numbers_hash_as_before():
    for key in NUMBERS:
        assert key_hash(key) == hash(key), key
    keys = list(range(-50, 50))
    assert PYTHON_KERNELS.bucket_indices(keys, 13) == [hash(k) % 13 for k in keys]
    assert ARRAY_KERNELS.bucket_indices(keys, 13) == [hash(k) % 13 for k in keys]


def test_text_bytes_and_none_are_process_independent():
    assert key_hash("key7") == zlib.crc32(b"key7")
    assert key_hash(b"key7") == zlib.crc32(b"key7")
    assert key_hash("\ud800") == zlib.crc32("\ud800".encode("utf-8", "surrogatepass"))
    assert key_hash(None) == key_hash(None) != key_hash(0)
    keys = ["a", "bb", None, "a"]
    for kernels in (PYTHON_KERNELS, ARRAY_KERNELS):
        assert kernels.bucket_indices(keys, 7) == [key_hash(k) % 7 for k in keys]
        assert kernels.spill_partitions(keys, 2, 5) == [
            spill_partition_of(k, 2, 5) for k in keys]


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
