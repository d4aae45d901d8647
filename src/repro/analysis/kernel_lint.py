"""Static SIMT lint for simulated-GPU kernel sources.

Kernels in this codebase are Python generator functions (first parameter
``ctx``, each ``yield`` a ``__syncthreads`` barrier) executed by
:class:`repro.gpu.kernel.Device`. The simulator's shuffled schedule makes
many SIMT bug classes *reproducible*, but only at runtime and only on the
schedules a test happens to draw. This module is the complementary static
layer: an AST pass that flags the bug classes before any kernel runs.

Rules
-----

``KL101`` **barrier divergence** *(error, kernel scope)*
    A ``yield`` (barrier) reachable under thread-varying control flow — an
    ``if``/``while`` whose test, or a ``for`` whose iterable, depends on
    ``ctx.tid``/``ctx.gtid`` (directly or through assignments). On real
    hardware a ``__syncthreads`` in divergent code is undefined behaviour;
    the simulator raises :class:`~repro.errors.BarrierDivergenceError` at
    runtime only when a schedule actually desynchronizes.

``KL102`` **non-atomic shared write** *(error, kernel scope)*
    A plain subscript store to a device array where the address is uniform
    across threads (index not thread-varying) and the store is not
    predicated on a thread-varying condition (``if ctx.tid == 0: ...``).
    Every thread of the block writes the same address in the same phase —
    a write-write race. Use the ``ctx.atomic_*`` helpers or predicate the
    store.

``KL103`` **unaccounted loop** *(warning, kernel scope)*
    A loop that performs work (calls or array accesses) but contains no
    ``ctx.work(...)`` or ``ctx.atomic_*`` call. The cost model then sees
    zero cycles for the loop, which silently skews every simulated-time
    figure derived from the kernel.

``KL201`` **missing dtype** *(warning, module scope)*
    ``np.empty/np.zeros/np.ones/np.full`` without an explicit ``dtype``.
    The float64 default is almost never what a 2-bit-packed / int64-triplet
    pipeline wants, and dtype drift between backends breaks the
    vectorized-vs-simulated equivalence tests in confusing ways.

``KL202`` **narrowing dtype** *(warning, module scope)*
    An ``int32``/``int16``/``uint32`` dtype request (``dtype=np.int32`` or
    ``.astype(np.int32)``). Triplet components (``r``, ``q``, ``length``),
    ``locs``, ``keys`` and ``ptrs`` are int64 by contract (chromosome-scale
    offsets overflow int32); narrowing them is the copMEM-style
    sampling-index bug class.

A finding on a line whose trailing comment contains ``simt: ignore`` (or
``simt: ignore[KL103]`` for one rule) is suppressed.

Kernel detection: any generator function whose first parameter is named
``ctx``. A module may additionally register functions by name in a
module-level ``__simt_kernels__ = ("name", ...)`` tuple.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import asdict, dataclass

__all__ = [
    "Finding",
    "RULES",
    "lint_source",
    "lint_file",
    "lint_paths",
    "format_findings",
    "findings_to_json",
]

#: rule id -> (severity, short description)
RULES = {
    "KL101": ("error", "barrier (yield) under thread-varying control flow"),
    "KL102": ("error", "non-atomic store to a uniform device-array address"),
    "KL103": ("warning", "loop does work but never charges ctx.work()"),
    "KL201": ("warning", "array constructor without explicit dtype"),
    "KL202": ("warning", "narrowing dtype on a 64-bit pipeline array"),
}

_NARROW_DTYPES = {"int32", "uint32", "int16", "uint16", "int8"}
_CTORS_DTYPE_ARG2 = {"empty", "zeros", "ones"}  # dtype is 2nd positional
_CTORS_DTYPE_ARG3 = {"full"}  # dtype is 3rd positional


@dataclass(frozen=True)
class Finding:
    """One lint finding, with enough provenance to be a CI gate message."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    kernel: str | None = None

    def format(self) -> str:
        where = f"{self.path}:{self.line}:{self.col}"
        scope = f" [kernel {self.kernel}]" if self.kernel else ""
        return f"{where}: {self.rule} {self.severity}:{scope} {self.message}"


# --------------------------------------------------------------------------
# helpers over the AST
# --------------------------------------------------------------------------


def _is_ctx_attr(node: ast.AST, names: tuple[str, ...]) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ctx"
        and node.attr in names
    )


def _is_ctx_method_call(node: ast.AST, names: tuple[str, ...]) -> bool:
    return isinstance(node, ast.Call) and _is_ctx_attr(node.func, names)


_ATOMICS = ("atomic_add", "atomic_max", "atomic_exch", "atomic_min", "atomic_cas")


def _assigned_names(target: ast.AST) -> list[str]:
    """Plain names bound by an assignment target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_assigned_names(elt))
        return out
    return []


def _walk_no_nested_functions(node: ast.AST):
    """``ast.walk`` that does not descend into nested function/class defs."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        for child in ast.iter_child_nodes(cur):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            stack.append(child)


class _TaintTracker:
    """Fixed-point propagation of *thread-varying* values through a kernel.

    Seeds: ``ctx.tid``, ``ctx.gtid`` and the return value of any
    ``ctx.atomic_*`` call (its value depends on the thread schedule). Any
    name assigned from an expression containing a tainted value becomes
    tainted; ``for`` targets inherit the taint of the iterable.
    """

    def __init__(self, func: ast.FunctionDef):
        self.func = func
        self.tainted: set[str] = set()
        self._stabilize()

    def _stabilize(self) -> None:
        for _ in range(32):  # fixed point; kernels are small
            before = len(self.tainted)
            for node in _walk_no_nested_functions(self.func):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    value = node.value
                    if value is None:
                        continue
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    if isinstance(node, ast.AugAssign):
                        # x += tainted taints x; x += uniform keeps x
                        already = any(n in self.tainted for n in _assigned_names(node.target))
                        if not already and not self.is_tainted(value):
                            continue
                    if self.is_tainted(value) or isinstance(node, ast.AugAssign):
                        for t in targets:
                            self.tainted.update(_assigned_names(t))
                elif isinstance(node, ast.For):
                    if self.is_tainted(node.iter):
                        self.tainted.update(_assigned_names(node.target))
                elif isinstance(node, (ast.comprehension,)):
                    if self.is_tainted(node.iter):
                        self.tainted.update(_assigned_names(node.target))
            if len(self.tainted) == before:
                return

    def is_tainted(self, expr: ast.AST) -> bool:
        for node in ast.walk(expr):
            if _is_ctx_attr(node, ("tid", "gtid")):
                return True
            if _is_ctx_method_call(node, _ATOMICS):
                return True
            if isinstance(node, ast.Name) and node.id in self.tainted:
                return True
        return False


# --------------------------------------------------------------------------
# kernel-scope checks
# --------------------------------------------------------------------------


class _KernelChecker:
    def __init__(self, func: ast.FunctionDef, path: str, add):
        self.func = func
        self.path = path
        self.add = add
        self.taint = _TaintTracker(func)
        #: per-thread fresh containers: stores into them are thread-private
        self.private: set[str] = self._collect_private()

    def _collect_private(self) -> set[str]:
        private: set[str] = set()
        for node in _walk_no_nested_functions(self.func):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp)):
                    for t in targets:
                        private.update(_assigned_names(t))
        return private

    def _finding(self, rule: str, node: ast.AST, message: str) -> None:
        sev = RULES[rule][0]
        self.add(
            Finding(
                rule=rule,
                severity=sev,
                path=self.path,
                line=getattr(node, "lineno", self.func.lineno),
                col=getattr(node, "col_offset", 0),
                message=message,
                kernel=self.func.name,
            )
        )

    # -- KL101 / KL102 share a guarded walk ---------------------------------
    def run(self) -> None:
        self._walk(self.func.body, divergent=False)
        self._check_loops_accounting()

    def _walk(self, stmts: list[ast.stmt], divergent: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, (ast.Yield, ast.YieldFrom)):
                if divergent:
                    self._finding(
                        "KL101",
                        stmt,
                        "barrier reached under thread-varying control flow — "
                        "threads of the block may not converge on this yield "
                        "(undefined behaviour on real hardware)",
                    )
                continue
            self._check_store(stmt, divergent)
            if isinstance(stmt, ast.If):
                branch_div = divergent or self.taint.is_tainted(stmt.test)
                self._walk(stmt.body, branch_div)
                self._walk(stmt.orelse, branch_div)
            elif isinstance(stmt, ast.While):
                branch_div = divergent or self.taint.is_tainted(stmt.test)
                self._walk(stmt.body, branch_div)
            elif isinstance(stmt, ast.For):
                branch_div = divergent or self.taint.is_tainted(stmt.iter)
                self._walk(stmt.body, branch_div)
                self._walk(stmt.orelse, divergent)
            elif isinstance(stmt, (ast.With,)):
                self._walk(stmt.body, divergent)
            elif isinstance(stmt, ast.Try):
                self._walk(stmt.body, divergent)
                for h in stmt.handlers:
                    self._walk(h.body, divergent)
                self._walk(stmt.orelse, divergent)
                self._walk(stmt.finalbody, divergent)

    def _check_store(self, stmt: ast.stmt, divergent: bool) -> None:
        """KL102: uniform-address, unpredicated store to a device array."""
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        else:
            return
        subs: list[ast.Subscript] = []
        for t in targets:
            if isinstance(t, ast.Subscript):
                subs.append(t)
            elif isinstance(t, (ast.Tuple, ast.List)):
                subs.extend(e for e in t.elts if isinstance(e, ast.Subscript))
        for sub in subs:
            base = sub.value
            if isinstance(base, ast.Name) and base.id in self.private:
                continue  # store into a thread-private python container
            if divergent:
                continue  # predicated on a thread-varying condition
            if self.taint.is_tainted(sub.slice):
                continue  # per-thread address
            name = ast.unparse(base) if hasattr(ast, "unparse") else "<array>"
            self._finding(
                "KL102",
                sub,
                f"every thread stores to the same address {name}"
                f"[{ast.unparse(sub.slice)}] in the same phase — a "
                "write-write race; use ctx.atomic_* or predicate on ctx.tid",
            )

    # -- KL103 --------------------------------------------------------------
    def _check_loops_accounting(self) -> None:
        for node in _walk_no_nested_functions(self.func):
            if not isinstance(node, (ast.For, ast.While)):
                continue
            has_accounting = False
            has_work = False
            for sub in node.body:
                for inner in _walk_no_nested_functions(sub):
                    if _is_ctx_method_call(inner, ("work",) + _ATOMICS):
                        has_accounting = True
                    elif isinstance(inner, (ast.Call, ast.Subscript)):
                        has_work = True
            if has_work and not has_accounting:
                self._finding(
                    "KL103",
                    node,
                    "loop performs memory/compute work but never calls "
                    "ctx.work() — the cost model will see zero cycles for it",
                )


# --------------------------------------------------------------------------
# module-scope checks
# --------------------------------------------------------------------------


def _is_np_attr(node: ast.AST, names) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr in names
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def _check_dtypes(tree: ast.Module, path: str, add) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        kw = {k.arg: k.value for k in node.keywords if k.arg}
        # KL201: constructor without dtype
        if _is_np_attr(node.func, _CTORS_DTYPE_ARG2 | _CTORS_DTYPE_ARG3):
            need = 2 if node.func.attr in _CTORS_DTYPE_ARG2 else 3
            if "dtype" not in kw and len(node.args) < need:
                add(
                    Finding(
                        rule="KL201",
                        severity=RULES["KL201"][0],
                        path=path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"np.{node.func.attr}(...) without an explicit dtype "
                            "defaults to float64 — state the dtype (pipeline "
                            "arrays are int64/uint8 by contract)"
                        ),
                    )
                )
        # KL202: narrowing dtype, either dtype=np.int32 or .astype(np.int32)
        narrow = None
        for candidate in list(node.args) + list(kw.values()):
            if _is_np_attr(candidate, _NARROW_DTYPES):
                narrow = candidate.attr
            elif isinstance(candidate, ast.Constant) and candidate.value in _NARROW_DTYPES:
                narrow = candidate.value
        is_astype = isinstance(node.func, ast.Attribute) and node.func.attr == "astype"
        takes_dtype = is_astype or _is_np_attr(
            node.func, _CTORS_DTYPE_ARG2 | _CTORS_DTYPE_ARG3 | {"array", "asarray", "arange"}
        ) or "dtype" in kw
        if narrow and takes_dtype:
            add(
                Finding(
                    rule="KL202",
                    severity=RULES["KL202"][0],
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"narrowing to {narrow}: triplet/index arrays are int64 "
                        "by contract — chromosome-scale offsets overflow 32 bits"
                    ),
                )
            )


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def _is_kernel(func: ast.FunctionDef, registered: set[str]) -> bool:
    if func.name in registered:
        return True
    args = func.args.posonlyargs + func.args.args
    if not args or args[0].arg != "ctx":
        return False
    return any(
        isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _walk_no_nested_functions(func)
    )


def _registered_kernels(tree: ast.Module) -> set[str]:
    """Names listed in a module-level ``__simt_kernels__`` tuple/list."""
    out: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__simt_kernels__":
                    if isinstance(node.value, (ast.Tuple, ast.List)):
                        for elt in node.value.elts:
                            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                                out.add(elt.value)
    return out


def _suppressed(finding: Finding, lines: list[str]) -> bool:
    if not (1 <= finding.line <= len(lines)):
        return False
    text = lines[finding.line - 1]
    if "simt: ignore" not in text:
        return False
    marker = text.split("simt: ignore", 1)[1]
    if marker.startswith("["):
        rules = marker[1 : marker.index("]")] if "]" in marker else ""
        return finding.rule in {r.strip() for r in rules.split(",")}
    return True


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one module's source text; returns suppression-filtered findings."""
    tree = ast.parse(source, filename=path)
    findings: list[Finding] = []
    add = findings.append
    registered = _registered_kernels(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and _is_kernel(node, registered):
            _KernelChecker(node, path, add).run()
    _check_dtypes(tree, path, add)
    lines = source.splitlines()
    kept = [f for f in findings if not _suppressed(f, lines)]
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


def lint_file(path: str) -> list[Finding]:
    """Lint one ``.py`` file (see :func:`lint_source`)."""
    with open(path, encoding="utf-8") as fh:
        return lint_source(fh.read(), path)


def lint_paths(paths, *, select=None, ignore=None) -> list[Finding]:
    """Lint files and/or directory trees of ``*.py`` files.

    ``select``/``ignore`` are iterables of rule ids filtering the output.
    """
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                files.extend(
                    os.path.join(root, n) for n in sorted(names) if n.endswith(".py")
                )
        else:
            files.append(p)
    findings: list[Finding] = []
    for f in sorted(set(files)):
        findings.extend(lint_file(f))
    if select:
        allowed = set(select)
        findings = [f for f in findings if f.rule in allowed]
    if ignore:
        blocked = set(ignore)
        findings = [f for f in findings if f.rule not in blocked]
    return findings


def format_findings(findings) -> str:
    """Human-readable report: one line per finding plus a summary line."""
    lines = [f.format() for f in findings]
    n_err = sum(1 for f in findings if f.severity == "error")
    n_warn = len(findings) - n_err
    lines.append(f"{len(findings)} finding(s): {n_err} error(s), {n_warn} warning(s)")
    return "\n".join(lines)


def findings_to_json(findings) -> str:
    """Findings as a JSON array (``gpumem analyze --format json``)."""
    return json.dumps([asdict(f) for f in findings], indent=2)
