import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# every dqkd name the benchmark's workloads import, by module: a change that
# renames or deletes one of them changes the benchmark harness too
PERFBENCH_DQKD_IMPORTS = {
    ("dqkd", "FidelityConstraint"),
    ("dqkd", "ProtocolConfig"),
    ("dqkd", "be_spectrum_closed_form"),
    ("dqkd", "build_rho_abe"),
    ("dqkd", "entropy_objective"),
    ("dqkd", "final_rate"),
    ("dqkd", "forward_fidelities"),
    ("dqkd", "maximize_s_be"),
    ("dqkd", "named_attack"),
    ("dqkd", "partial_trace"),
    ("dqkd", "realize_ancilla"),
    ("dqkd", "run_protocol"),
    ("dqkd", "s_be_numeric"),
    ("dqkd", "sample_valid"),
    ("dqkd", "validate"),
    ("dqkd", "von_neumann_entropy"),
    ("dqkd.optimizer", "GAP_TOLERANCE"),
    ("dqkd.verify", "run_verification"),
}


def test_perfbench_imports_a_pinned_set_of_dqkd_names():
    # parsed, not imported: every import statement of the workloads module,
    # at any depth, that reaches into dqkd; each name still resolves
    imported = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dqkd":
            imported |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(a.name, None) for a in node.names if a.name.split(".")[0] == "dqkd"}
    assert imported == PERFBENCH_DQKD_IMPORTS
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)
