"""Which workload measures which end-to-end metric.

``BENCHMARK.json`` cannot carry this matrix: the driver's contract fixes its
keys. Plain data, imported by the workloads, ``run.py``, ``agree.py`` and
the smoke test.
"""

#: The issue's table: the cells each workload exists to measure. They come
#: from its main timed phase and are held to the repeatability rules.
MAIN_CELLS = {
    "core-inproc": ("setup_s", "produce_rec_per_s", "consume_rec_per_s", "cpu_s_per_mrec",
                    "mem_bytes_per_user_byte"),
    "gw-ingest": ("setup_s", "produce_rec_per_s", "produce_ack_p50_ms", "produce_ack_p90_ms",
                  "cpu_s_per_mrec", "mem_bytes_per_user_byte"),
    "gw-tail": ("setup_s", "produce_ack_p50_ms", "produce_ack_p90_ms", "e2e_p50_ms",
                "e2e_p90_ms", "cpu_s_per_mrec"),
    "gw-scan": ("setup_s", "consume_rec_per_s", "cpu_s_per_mrec", "mem_bytes_per_user_byte"),
}

#: The driver's contract (quoted in README.md) has every workload print
#: every metric, so the cells outside a workload's column are *filled*: the
#: metric's definition read on traffic the workload makes anyway — no probe,
#: no extra phase. They are not what the workload is for; a claim may not
#: rest on them.
_REQUEST = "one phase-A request, encode to produce() returning"
_AGE = "age of a chunk, sent instant to decoded by the read-back; set by the phase lengths"
_OFFERED = "achieved rate on the timetable: the offered 5,000 rec/s unless the system falls behind"
_PRELOAD = "the preload (same loop as gw-ingest, 320 k records)"
FILL_CELLS = {
    "core-inproc": {"produce_ack_p50_ms": _REQUEST, "produce_ack_p90_ms": _REQUEST,
                    "e2e_p50_ms": _AGE, "e2e_p90_ms": _AGE},
    "gw-ingest": {"consume_rec_per_s": "the read-back that is the output check (cache-cold, "
                                       "CRC-verified payloads, no Record objects)",
                  "e2e_p50_ms": _AGE, "e2e_p90_ms": _AGE},
    "gw-tail": {"produce_rec_per_s": _OFFERED, "consume_rec_per_s": _OFFERED,
                "mem_bytes_per_user_byte": "same formula, but only ~11 MB of user bytes under it"},
    "gw-scan": {"produce_rec_per_s": _PRELOAD, "produce_ack_p50_ms": _PRELOAD,
                "produce_ack_p90_ms": _PRELOAD, "e2e_p50_ms": _AGE, "e2e_p90_ms": _AGE},
}
