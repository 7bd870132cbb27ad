"""service_jobs — ``POST /jobs`` to result on the in-process audit service.

A ``JobEngine(workers=2)`` behind ``repro.service.httpd.serve`` on
loopback, driven by one closed-loop client: it POSTs a path job on a
packed ``make_hiring`` dataset, polls ``GET /jobs/<id>`` every
``POLL_S`` until the job ends, then sends its next job.  The job mix
has fixed shares: distinct audit configs (cache misses), exact
resubmissions of earlier audits (cache hits), and small ``best_first``
subgroup scans.  This is the only workload with journal fsync,
result-store writes, admission and HTTP.

One client, not one per core: two clients plus the engine's workers
keep both cores of a 2-core machine busy, and then any other load on
the machine shows up in every figure (two runs of the same seed
differed by 30%).

Every pass runs the same job plan against a fresh engine over a fresh
state root, swapped in behind the running server before the pass, so
each pass does the same work and has the same cache hits; the engine
started during set-up serves pass 0.

Output check: each job must succeed with the planned cache outcome,
and its stored findings (read back over ``GET /results/<key>/raw``)
must equal a direct in-memory ``repro.audit()``/``scan_subgroups()`` of
the dataset that was packed, under the same config.
"""

from __future__ import annotations

import http.client
import json
import time

import numpy as np

from perfbench.harness import Op, Pass

SIZES = {
    "full": {"datasets": 4, "rows": 100_000, "jobs": 24},
    "tiny": {"datasets": 2, "rows": 2_000, "jobs": 6},
}
WORKERS = 2
POLL_S = 0.005
#: job-kind shares of the plan; audits are the majority so that the
#: median job is an audit, not a point on the boundary between audits
#: and the faster kinds
SHARES = {"audit": 2 / 3, "resubmit": 1 / 6, "subgroups": 1 / 6}
TERMINAL = ("succeeded", "failed", "cancelled", "interrupted")


def _plan(rng, n_jobs, n_datasets):
    """The job list as (kind, dataset index, request body) triples."""
    counts = {k: int(round(share * n_jobs)) for k, share in SHARES.items()}
    counts["audit"] = n_jobs - counts["resubmit"] - counts["subgroups"]
    kinds = ["resubmit"] * counts["resubmit"] + \
        ["subgroups"] * counts["subgroups"] + \
        ["audit"] * (counts["audit"] - 1)
    # an audit comes first, so every resubmission has one to repeat
    kinds = ["audit"] + [kinds[i] for i in rng.permutation(len(kinds))]
    plan, audits = [], []
    for j, kind in enumerate(kinds):
        if kind == "resubmit":
            _, index, body = plan[audits[rng.integers(len(audits))]]
            plan.append(("resubmit", index, body))
            continue
        index = int(rng.integers(n_datasets))
        # a distinct knob per job makes every first submission a miss
        knob = round(0.01 + 0.002 * j, 4)
        if kind == "audit":
            body = {"kind": "audit", "config": {"tolerance": knob}}
            audits.append(j)
        else:
            body = {"kind": "subgroups", "scan_config": {
                "strategy": "best_first", "max_order": 1, "min_size": 10,
                "alpha": knob}}
        plan.append((kind, index, body))
    return plan


def finding_key(finding: dict) -> list:
    return [json.dumps(finding["conditions"]), finding["size"],
            finding["p_value"], finding.get("adjusted_p_value")]


def check_job(kind: str, job: dict, payload: dict | None, expected,
              cache_hit: bool) -> str:
    """'' when one job's record and stored result are right, else why."""
    if job.get("status") != "succeeded":
        return f"job {job.get('job_id')} ended {job.get('status')}: " \
               f"{job.get('error', '')}"
    if bool(job.get("cache_hit")) != cache_hit:
        return f"job {job['job_id']} cache_hit={job.get('cache_hit')}, " \
               f"planned {cache_hit}"
    if payload is None:
        return f"job {job['job_id']}: no stored result"
    if kind == "subgroups":
        got = [finding_key(f) for f in payload.get("findings", [])]
    else:
        got = payload.get("report", {}).get("findings")
    if got != expected:
        return f"job {job['job_id']}: findings differ from the direct run"
    return ""


def _call(port, method, path, body=None):
    """One JSON request on a new connection, as ``curl`` or an HTTP
    library without connection reuse sends it.

    Keep-alive connections are not used: on one, every response of the
    service currently waits about 40 ms for a delayed ACK (its headers
    and body leave in separate writes), which would quantize each job's
    latency into 40 ms steps of polling.
    """
    payload = json.dumps(body).encode() if body is not None else None
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class ServiceJobs:
    name = "service_jobs"
    op_name = "one job: POST /jobs, then poll until it ends"
    #: about 200 jobs per run: p90 leaves 20 beyond
    tail_percentile = 90

    def __init__(self, seed: int, size: str, workdir):
        from repro import make_hiring

        shape = SIZES[size]
        rng = np.random.default_rng(seed)
        self.datasets = [
            make_hiring(n=shape["rows"],
                        direct_bias=float(rng.uniform(0.0, 1.5)),
                        proxy_strength=float(rng.uniform(0.0, 0.8)),
                        random_state=int(rng.integers(2**31)))
            for _ in range(shape["datasets"])
        ]
        self.plan = _plan(rng, shape["jobs"], shape["datasets"])
        self.pass_size = (f"{shape['jobs']} jobs on {shape['datasets']} "
                          f"packs of {shape['rows']} rows")
        self.workdir = workdir
        self.paths = None
        self.engine = self.server = None
        self.expected = self._direct_results()
        self.hits = self.submitted = 0

    def _direct_results(self) -> list:
        """Per plan entry: the findings a direct run produces."""
        from repro import AuditConfig, audit
        from repro.core.config import ScanConfig
        from repro.core.serialize import report_to_dict
        from repro.subgroup.search import scan_subgroups

        expected = []
        for kind, index, body in self.plan:
            dataset = self.datasets[index]
            if kind == "subgroups":
                result = scan_subgroups(
                    dataset.labels(), dataset,
                    config=ScanConfig.from_dict(body["scan_config"]))
                expected.append([finding_key({
                    "conditions": [[a, v] for a, v in f.subgroup.conditions],
                    "size": f.subgroup.size, "p_value": f.p_value,
                    "adjusted_p_value": f.adjusted_p_value,
                }) for f in result.findings])
            else:
                config = AuditConfig.from_dict(body["config"])
                expected.append(report_to_dict(
                    audit(dataset, config=config))["findings"])
        return json.loads(json.dumps(expected))

    def prepare(self, tracer) -> None:
        """Pack the datasets, start the engine and bind the server."""
        from repro.data import ooc
        from repro.service import JobEngine
        from repro.service.httpd import serve

        with tracer.span("data.pack", op="setup"):
            self.paths = [
                str(ooc.pack_dataset(d, self.workdir / f"hiring-{i}.packed"))
                for i, d in enumerate(self.datasets)
            ]
        with tracer.span("service.start", op="setup"):
            self.engine = JobEngine(self.workdir / "root-0", workers=WORKERS)
            self.server = serve(self.engine)

    # -- the timed pass ------------------------------------------------------

    def _job(self, op_id, body, tracer) -> dict:
        """Submit one job and poll it to the end; the operation."""
        port = self.server.port
        record = {"op": op_id, "error": "", "job": {}}
        with tracer.span("op", op=op_id) as span:
            began = time.perf_counter()
            try:
                with tracer.span("service.submit"):
                    status, raw = _call(port, "POST", "/jobs", body)
                job = json.loads(raw)
                if status not in (200, 201):
                    record["rejected"] = status in (429, 503)
                    raise RuntimeError(f"POST /jobs answered {status}")
                while job["status"] not in TERMINAL:
                    time.sleep(POLL_S)
                    status, raw = _call(port, "GET", job["href"])
                    job = json.loads(raw)
                record["job"] = job
            except Exception as exc:  # noqa: BLE001 — counted, reported
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["latency"] = time.perf_counter() - began
        record["span"] = span
        return record

    def run_pass(self, index: int, tracer) -> Pass:
        if index > 0:
            from repro.service import JobEngine

            previous = self.engine
            self.engine = JobEngine(self.workdir / f"root-{index}",
                                    workers=WORKERS)
            self.server.engine = self.engine
            previous.shutdown()
        offset = time.time() - time.perf_counter()
        records = []
        start = time.perf_counter()
        for j, (kind, dataset, body) in enumerate(self.plan):
            request = dict(body, params={"data": self.paths[dataset]})
            record = self._job(f"{index}.{j}", request, tracer)
            record.update(kind=kind, plan=j)
            records.append(record)
        wall = time.perf_counter() - start
        if tracer.enabled:
            self._attach_job_spans(tracer, records, offset)
        self._fetch_results(records)
        ops = [Op(r["latency"], r["error"]) for r in records]
        return Pass(wall, ops, records)

    def _attach_job_spans(self, tracer, records, offset):
        """Add each job's queue wait and run (from its record) under the
        job's operation, and hang the engine-thread spans of that job
        below the run."""
        by_job = {}
        for r in records:
            job = r["job"]
            if not job.get("started_at"):
                continue
            op, parent = r["op"], r["span"]["id"]
            tracer.add("service.queue_wait", job["submitted_at"] - offset,
                       job["started_at"] - offset, parent=parent, op=op)
            run = tracer.add("service.job_run", job["started_at"] - offset,
                             job["finished_at"] - offset, parent=parent, op=op)
            by_job[job["job_id"]] = run
        for span in tracer.spans:
            run = by_job.get(span["op"])
            if run is not None:
                span["op"] = run["op"]
                if span["parent"] is None:
                    span["parent"] = run["id"]

    def _fetch_results(self, records):
        for r in records:
            href = r["job"].get("result")
            r["payload"] = None
            if href:
                status, raw = _call(self.server.port, "GET", f"{href}/raw")
                r["payload"] = json.loads(raw) if status == 200 else None

    def check(self, done: Pass) -> None:
        for op, r in zip(done.ops, done.outputs):
            self.hits += bool(r["job"].get("cache_hit"))
            if not op.error:
                op.error = check_job(r["kind"], r["job"], r["payload"],
                                     self.expected[r["plan"]],
                                     cache_hit=r["kind"] == "resubmit")
        self.submitted += len(done.ops)
        done.outputs = [sum(bool(r.get("rejected")) for r in done.outputs)]

    def counts(self, passes) -> dict:
        planned = sum(kind == "resubmit" for kind, _, _ in self.plan)
        return {
            "service.rejected": (sum(p.outputs[0] for p in passes),
                                 f"of {self.submitted} submissions"),
            "service.cache_hit_ratio": (
                self.hits / self.submitted,
                f"{self.hits} hits / {self.submitted} submissions; "
                f"resubmitted share {planned}/{len(self.plan)}"),
        }

    def describe(self) -> list[str]:
        kinds = [kind for kind, _, _ in self.plan]
        return ["job mix per pass: " + ", ".join(
            f"{kinds.count(k)} {k}" for k in SHARES)]

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.engine.shutdown()
        self.engine = self.server = None
