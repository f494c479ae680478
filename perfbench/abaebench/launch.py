"""Self-contained launch: environment, SparkSession, memory, shutdown.

Everything the run reads or writes stays inside the checkout: Spark's
local dirs, Python's and the JVM's temp dirs, spans and digests all go
under ``.perfbench-work/`` at the checkout root.
"""
from __future__ import annotations

import os
import platform
import shlex
import subprocess
import sys
import time
from pathlib import Path

WORK_DIR = ".perfbench-work"


class MissingProgram(RuntimeError):
    """The checkout has no program to benchmark."""


def repo_root() -> Path:
    return Path(__file__).resolve().parents[2]


def driver_mem() -> str:
    """Spark driver heap sized like the repository's test command: half
    of MemTotal in GiB, clamped to [2, 8]."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    g = int(line.split()[1]) // 2097152
                    return f"{min(max(g, 2), 8)}g"
    except OSError:
        pass
    return "2g"


def cores() -> int:
    """Spark ``local[n]``: every core up to 4, so runs on larger hosts
    keep the parallelism the bounds were fixed at."""
    return max(1, min(os.cpu_count() or 1, 4))


def prepare_env(root: Path) -> dict:
    """Set the environment Spark and its Python workers start from.
    Must run before pyspark is imported."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program at {src / 'repro'}")
    work = root / WORK_DIR
    local_dirs = work / "spark-local"
    tmp = work / "tmp"
    for d in (local_dirs, tmp):
        d.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(src))
    # Spark's Python workers import ``repro`` inside mapInPandas and
    # pandas UDFs; without src on their path they fail with
    # ModuleNotFoundError.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = str(local_dirs)
    os.environ["TMPDIR"] = str(tmp)
    n, mem = cores(), driver_mem()
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:+UseSerialGC"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{n}] --driver-memory {mem} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf {shlex.quote('spark.driver.extraJavaOptions=' + java_opts)} "
        "pyspark-shell"
    )
    return {"cores": n, "master": f"local[{n}]", "driver_memory": mem}


def start_spark():
    """SparkSession configured as the test suite's ``spark`` fixture."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def environment(spark, env: dict) -> dict:
    import numpy
    import pyspark

    return {
        **env,
        "spark": pyspark.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "default_parallelism": spark.sparkContext.defaultParallelism,
        "nproc": os.cpu_count(),
    }


def _vm_hwm_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _jvm_proc(spark):
    return spark.sparkContext._gateway.proc


def peak_rss_mb(spark) -> float:
    """Driver Python VmHWM plus Spark JVM VmHWM, in MB."""
    kb = _vm_hwm_kb("self") + _vm_hwm_kb(_jvm_proc(spark).pid)
    return kb / 1024.0


def stop_spark(spark, timeout: float = 60.0) -> None:
    """Stop Spark and wait until the JVM and every process under it
    (the Python worker daemon and its workers) has exited; kill the JVM
    if it does not exit."""
    from pyspark import SparkContext

    proc = _jvm_proc(spark)
    started = _descendants(os.getpid())
    spark.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        gateway.shutdown()
    if proc.stdin is not None:
        proc.stdin.close()
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=timeout)
    deadline = time.monotonic() + timeout
    while started and time.monotonic() < deadline:
        started = {pid for pid in started if _alive(pid)}
        time.sleep(0.05)


def _stat(pid: str) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _alive(pid: str) -> bool:
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"


def _descendants(root: int) -> set[str]:
    children: dict[str, list[str]] = {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        fields = _stat(pid)
        if fields is not None:
            children.setdefault(fields[1], []).append(pid)
    out, todo = set(), [str(root)]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.add(child)
            todo.append(child)
    return out
