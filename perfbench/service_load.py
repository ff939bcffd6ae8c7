"""The service_mix load: one ``serve`` subprocess, one generator process.

The generator has two client threads and at most one connection each:

* a closed loop that submits fresh runs (``specs.service_plan``) one at
  a time, polls until each completes and fetches its report; before
  each fresh run, and once after the last, it sends one round of reads
  to the idle server (``READ_ROUND``);
* an open loop that sends reads while runs execute, each timed from
  when it was due: a second tenant's duplicate submission of a finished
  run (served from the store), its status, the run list and its report.

Reads sent while runs execute wait for the server's GIL, so their
latency mostly measures how much compute is running when they arrive;
with a few dozen per run it varies too much between runs to gate.  They
are reported as a diagnostic, and the gated read metrics come from the
idle rounds, which measure the read path itself.  The open loop pauses
during an idle round, so no two requests overlap there.  The rounds are
spread over the whole run: this host's speed swings for seconds at a
time, and a single idle window would measure whichever swing it hit.

The server writes its output to a log file, never to a pipe nobody
drains: a full stderr pipe blocks every server thread.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import specs

#: Converts ``--seconds`` into a fixed number of busy-phase cycles (one
#: cycle takes 7-10 s on a 2-core AMD EPYC container); 10 s gives three.
SECONDS_PER_CYCLE = 3.3
#: Reads per second while runs execute (each waits behind compute for the
#: GIL, ~0.2 s) and in an idle round (a few ms each).  Both rates keep
#: the read connection mostly idle, so queueing stays small.
BUSY_READ_RATE = 1.5
IDLE_READ_RATE = 20.0
#: Read kinds: 0 duplicate submit, 1 status, 2 list, 3 report.  An idle
#: round against one finished run sends these in order, each kind once:
#: a kind's latency depends on what the server served just before (a
#: status right after the fresh run's own polls takes half the time of
#: one after a list), so a kind sent from two places in a round gave a
#: two-humped distribution whose median jumped between the humps.  The
#: gated metric takes a median per kind (see ``run.service_metrics``).
#: The duplicate submit rewrites the run record (~0.1 s of writes), so
#: it comes last: no read of the round queues behind it.
READ_ROUND = (1, 3, 2, 0)
READ_KINDS = ("duplicate_submit", "status", "list", "report")
POLL_S = 0.025
RUN_TIMEOUT_S = 120.0
READY_TIMEOUT_S = 60.0
_LISTENING = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")


def _stat_fields(pid) -> List[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name (state first)."""
    return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()


def _tree_pids(root: int) -> List[int]:
    """``root`` and its live descendants."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = _stat_fields(entry)
            except OSError:
                continue
            parents[int(entry)] = int(fields[1])
    tree, frontier = [root], [root]
    while frontier:
        frontier = [pid for pid, parent in parents.items() if parent in frontier]
        tree += frontier
    return tree


def tree_cpu_s(root: int) -> float:
    """User + system seconds of a process tree, reaped children included."""
    ticks = 0
    for pid in _tree_pids(root):
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        ticks += sum(int(value) for value in fields[11:15])  # utime stime cutime cstime
    return ticks / os.sysconf("SC_CLK_TCK")


def tree_peak_rss_mb(root: int) -> float:
    peak = 0
    for pid in _tree_pids(root):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if match:
            peak = max(peak, int(match.group(1)))
    return peak / 1024.0


class Server:
    """A ``repro-seu serve`` subprocess on a fresh store."""

    def __init__(
        self, root: Path, store: Path, log: Path, trace_dir: Optional[Path]
    ) -> None:
        launcher = Path(__file__).resolve().parent / "serve_launcher.py"
        command = [sys.executable, str(launcher)]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        command += ["serve", "--store-dir", str(store), "--port", "0"]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.log = log
        start = time.perf_counter()
        with open(log, "wb") as sink:
            self.process = subprocess.Popen(
                command,
                cwd=root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=sink,
                stderr=sink,
            )
        self.port = self._wait_port(start)
        while True:
            try:
                status, _ = self.request("GET", "/v1/health")
                if status == 200:
                    break
            except OSError:
                pass
            self._check_alive(start)
            time.sleep(0.01)
        self.setup_s = time.perf_counter() - start

    def _check_alive(self, start: float) -> None:
        late = time.perf_counter() - start > READY_TIMEOUT_S
        if self.process.poll() is not None or late:
            raise RuntimeError(f"server did not become ready; see {self.log}")

    def _wait_port(self, start: float) -> int:
        while True:
            match = _LISTENING.search(self.log.read_text(errors="replace"))
            if match:
                return int(match.group(1))
            self._check_alive(start)
            time.sleep(0.005)

    def request(self, method: str, path: str, body: Any = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=RUN_TIMEOUT_S
        )
        try:
            payload = None if body is None else json.dumps(body).encode("utf-8")
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stop(self) -> float:
        """SIGTERM (graceful drain), wait, return the tree's peak RSS in MB."""
        peak = tree_peak_rss_mb(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return peak


class Outcome:
    """What one measured window produced."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.attempted = 0
        self.failures: List[str] = []
        self.fresh_s: List[float] = []
        self.fresh_kind: List[str] = []
        #: Per cycle: summed (wall s, server cpu s) of its fresh runs.
        self.cycles: List[Tuple[float, float]] = []
        self.reads_ms: List[float] = []  # idle rounds
        self.busy_reads_ms: List[float] = []
        self.lag_ms: List[float] = []
        self.elapsed_s = 0.0  # everything: the span a traced round covers

    def record(self, ok: bool, what: str) -> None:
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failures.append(what)


def _digest(text: bytes) -> str:
    import hashlib

    return hashlib.sha256(text).hexdigest()


def run_fresh(
    server: Server, payload: Dict[str, Any], expected: Dict[str, str]
) -> Tuple[bool, str, str]:
    """Submit one fresh run, wait for it, check its report; (ok, run id, why)."""
    status, body = server.request("POST", "/v1/runs", dict(payload, tenant="a"))
    if status != 202:
        return False, "", f"fresh submit HTTP {status}"
    submission = json.loads(body)
    run_id = submission["run_id"]
    if submission.get("cached") is not False:
        return False, run_id, f"fresh submit {run_id} cached={submission.get('cached')}"
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    while True:
        status, body = server.request("GET", f"/v1/runs/{run_id}")
        state = json.loads(body).get("state") if status == 200 else None
        if state == "complete":
            break
        late = time.perf_counter() > deadline
        if status != 200 or state in ("failed", "cancelled") or late:
            return False, run_id, f"run {run_id} status HTTP {status} state {state}"
        time.sleep(POLL_S)
    status, body = server.request("GET", f"/v1/runs/{run_id}/report")
    if status != 200:
        return False, run_id, f"report {run_id} HTTP {status}"
    if _digest(body) != expected.get(run_id):
        return False, run_id, f"report {run_id} differs from the api reference"
    if b"[FAIL]" in body:
        return False, run_id, f"report {run_id} has a failed shape check"
    return True, run_id, ""


def _read(
    server: Server,
    kind: int,
    run_id: str,
    payload: Dict[str, Any],
    expected: Dict[str, str],
) -> Tuple[bool, str]:
    if kind == 0:
        status, body = server.request("POST", "/v1/runs", dict(payload, tenant="b"))
        ok = status == 200 and json.loads(body).get("cached") is True
        return ok, f"duplicate submit {run_id}: HTTP {status}"
    if kind == 1:
        status, body = server.request("GET", f"/v1/runs/{run_id}")
        ok = status == 200 and json.loads(body).get("state") == "complete"
        return ok, f"status {run_id}: HTTP {status}"
    if kind == 2:
        status, body = server.request("GET", "/v1/runs")
        runs = json.loads(body)["runs"] if status == 200 else []
        ok = any(run["run_id"] == run_id for run in runs)
        return ok, f"list: HTTP {status}"
    status, body = server.request("GET", f"/v1/runs/{run_id}/report")
    ok = status == 200 and _digest(body) == expected.get(run_id)
    return ok, f"report {run_id}: HTTP {status}"


def _open_loop(server, outcome, finished, expected, rate, start, stop, into,
               gate=None) -> None:
    """Send reads at ``rate`` from ``start`` until ``stop(index, due)`` is true.

    Each read is timed from when it was due; ``into`` collects those
    latencies and ``outcome.lag_ms`` how late each was sent.  With a
    ``gate`` lock, a read is sent only while the lock is free (it is
    held for the read) and its slot is skipped otherwise.
    """
    index = 0
    while True:
        due = start + index / rate
        if stop(index, due):
            return
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if gate is not None and not gate.acquire(blocking=False):
            index += 1
            continue
        try:
            sent = time.perf_counter()
            with outcome.lock:
                run_id, payload = finished[(index // len(READ_ROUND)) % len(finished)]
            try:
                kind = READ_ROUND[index % len(READ_ROUND)]
                ok, why = _read(server, kind, run_id, payload, expected)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                ok, why = False, f"read: {type(exc).__name__}: {exc}"
            done = time.perf_counter()
        finally:
            if gate is not None:
                gate.release()
        outcome.record(ok, why)
        with outcome.lock:
            into.append((done - due) * 1e3)
            outcome.lag_ms.append((sent - due) * 1e3)
        index += 1


def drive(
    server: Server, seed: int, seconds: float, expected: Dict[str, str]
) -> Outcome:
    """Warm up, then run the fresh runs with idle read rounds between them.

    The closed loop runs ``round(seconds / SECONDS_PER_CYCLE)`` whole
    cycles (one fresh run of each kind; a fixed count, so every run
    measures the same mix) while the open loop reads at
    ``BUSY_READ_RATE``.  Before each fresh run and after the last, the
    closed loop holds the open loop's gate and sends one ``READ_ROUND``
    at ``IDLE_READ_RATE``, reading the newest finished run.
    """
    outcome = Outcome()
    started = time.perf_counter()
    warmup, fresh = specs.service_plan(seed)
    finished: List[Tuple[str, Dict[str, Any]]] = []
    for payload in warmup:
        ok, run_id, why = run_fresh(server, payload, expected)
        outcome.record(ok, why)
        if ok:
            finished.append((run_id, payload))
    if not finished:
        return outcome
    kinds = len(specs.SERVICE_KINDS)
    fresh = fresh[: kinds * max(1, round(seconds / SECONDS_PER_CYCLE))]
    closed_done = threading.Event()
    quiet = threading.Lock()

    def idle_round() -> None:
        with quiet:
            with outcome.lock:
                newest = [finished[-1]]
            _open_loop(server, outcome, newest, expected, IDLE_READ_RATE,
                       time.perf_counter(),
                       lambda index, _due: index >= len(READ_ROUND),
                       outcome.reads_ms)

    def closed_loop() -> None:
        try:
            cycle_wall = cycle_cpu = 0.0
            for index, payload in enumerate(fresh):
                idle_round()
                cpu_start = tree_cpu_s(server.process.pid)
                start = time.perf_counter()
                try:
                    ok, run_id, why = run_fresh(server, payload, expected)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    why = f"fresh run: {type(exc).__name__}: {exc}"
                    ok, run_id = False, ""
                done = time.perf_counter()
                cycle_wall += done - start
                cycle_cpu += tree_cpu_s(server.process.pid) - cpu_start
                outcome.record(ok, why)
                if ok:
                    with outcome.lock:
                        outcome.fresh_s.append(done - start)
                        outcome.fresh_kind.append(specs.SERVICE_KINDS[index % kinds])
                        finished.append((run_id, payload))
                if index % kinds == kinds - 1:
                    outcome.cycles.append((cycle_wall, cycle_cpu))
                    cycle_wall = cycle_cpu = 0.0
        finally:
            closed_done.set()

    def busy_reads() -> None:
        _open_loop(server, outcome, finished, expected, BUSY_READ_RATE,
                   time.perf_counter(),
                   lambda _index, due: closed_done.wait(
                       max(0.0, due - time.perf_counter())
                   ),
                   outcome.busy_reads_ms, gate=quiet)

    threads = [
        threading.Thread(target=closed_loop),
        threading.Thread(target=busy_reads),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    idle_round()
    outcome.elapsed_s = time.perf_counter() - started
    return outcome
