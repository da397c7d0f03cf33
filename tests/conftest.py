import subprocess
import sys

import pytest

try:
    from hypothesis import HealthCheck, settings
    settings.register_profile(
        "repeatable", deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow])
    settings.load_profile("repeatable")
except ImportError:
    pass


@pytest.fixture
def semilab_capped():
    """``semilab_capped(*argv, limit_mib=128)`` runs ``semilab argv...`` in a
    subprocess whose address space is capped at ``limit_mib`` MiB
    (RLIMIT_AS), and returns the completed process with its stdout and
    stderr as text."""
    resource = pytest.importorskip("resource")

    def run(*argv, limit_mib=128):
        limit = limit_mib * 2**20

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        return subprocess.run([sys.executable, "-m", "semilab",
                               *map(str, argv)], capture_output=True,
                              text=True, preexec_fn=cap_memory, timeout=60)
    return run


# one summary line per acceptance check, keyed by test function name
ACCEPTANCE_LINES = {
    "test_a1_quadruple_collision":
        "A1 quadruple monoid: (u c, v d) distinct in M, equal in the "
        "extension, derivation replays, under 10s",
    "test_a2_free_monoids_embed":
        "A2 free and free-commutative monoids: no collision to length 4, "
        "no inconclusive pairs",
    "test_a3_cancellative_is_group":
        "A3 every doubly cancellative table of order <= 4 is a group",
    "test_a3_order5_cancellative_is_group":
        "A3 the one doubly cancellative table among the 1915 order-5 "
        "classes is a group (Z5)",
    "test_a4_right_group_decomposition":
        "A4 right-group tables of order <= 4 decompose and rebuild the "
        "table exactly",
    "test_a4_order5_right_group_decomposition":
        "A4 the two order-5 right groups (Z5, the right-zero band) "
        "decompose and rebuild the table exactly",
    "test_a5_rank1_product_oracle":
        "A5 factored rank-1 products match dense multiplication "
        "(exhaustive F2/F3, 1000 random F5 and rationals)",
    "test_a6_direction_groups":
        "A6 direction groups over F2/F3/F5 at n=2,3 certify the scalar "
        "isomorphism; orders all p-1",
    "test_a7_universe_counts":
        "A7 rank-1 universes: 9 nonzero over F2, 32 over F3, both tables "
        "associative",
    "test_a8_rewriting_soundness":
        "A8 completed systems re-verify confluence; reduction idempotent "
        "and relation-sound on the corpus",
    "test_a9_malcev_scan":
        "A9 quadruple-condition scan clean on all cancellative tables "
        "<= 4; violation lists re-verify",
    "test_a9_order5_malcev_scan":
        "A9 quadruple-condition scan clean on the cancellative order-5 "
        "class",
}

_results = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.split("::")[-1]
    if name not in ACCEPTANCE_LINES:
        return
    if report.when == "call":
        _results[name] = report.outcome
    elif report.failed:
        _results[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance")
    for name, label in ACCEPTANCE_LINES.items():
        outcome = _results.get(name)
        if outcome is None:
            continue
        mark = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"[{mark}] {label}")
