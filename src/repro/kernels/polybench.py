"""PolyBench kernel specifications.

The paper evaluates PowerGear on nine PolyBench kernels: atax, bicg, gemm,
gesummv, 2mm, 3mm, mvt, syrk and syr2k.  Each function below builds the
corresponding :class:`~repro.kernels.spec.KernelSpec` with a configurable
problem size ``n`` (the paper uses full PolyBench sizes on a real board; the
default here is kept small so that activity simulation over the whole design
space stays laptop-friendly; the benchmarks raise it with
``POWERGEAR_BENCH_SIZE``).

Loop names are unique within a kernel so that design directives can address
individual loops (``i0``, ``j0`` for the first nest, ``i1``, ``j1`` for the
second, ...).
"""

from __future__ import annotations

from typing import Callable

from repro.kernels.spec import ArraySpec, Assign, Const, KernelSpec, Loop, Ref, add, mul

DEFAULT_SIZE = 8

ALPHA = 1.5
BETA = 1.2


def _acc(target: Ref, term) -> Assign:
    """``target = target + term``."""
    return Assign(target, add(target, term))


def atax(n: int = DEFAULT_SIZE) -> KernelSpec:
    """``y = A^T (A x)`` via the temporary ``tmp = A x``."""
    a = lambda i, j: Ref("A", (i, j))
    x = lambda j: Ref("x", (j,))
    y = lambda j: Ref("y", (j,))
    tmp = lambda i: Ref("tmp", (i,))
    body = [
        Loop("j0", n, [Assign(y("j0"), Const(0.0))]),
        Loop(
            "i1",
            n,
            [
                Assign(tmp("i1"), Const(0.0)),
                Loop("j1", n, [_acc(tmp("i1"), mul(a("i1", "j1"), x("j1")))]),
                Loop("j2", n, [_acc(y("j2"), mul(a("i1", "j2"), tmp("i1")))]),
            ],
        ),
    ]
    return KernelSpec(
        name="atax",
        arrays=[
            ArraySpec("A", (n, n), "in"),
            ArraySpec("x", (n,), "in"),
            ArraySpec("y", (n,), "out"),
            ArraySpec("tmp", (n,), "inout"),
        ],
        body=body,
        description="matrix transpose times vector product",
    )


def bicg(n: int = DEFAULT_SIZE) -> KernelSpec:
    """BiCG sub-kernel: ``s = A^T r`` and ``q = A p``."""
    a = lambda i, j: Ref("A", (i, j))
    body = [
        Loop("j0", n, [Assign(Ref("s", ("j0",)), Const(0.0))]),
        Loop(
            "i1",
            n,
            [
                Assign(Ref("q", ("i1",)), Const(0.0)),
                Loop(
                    "j1",
                    n,
                    [
                        _acc(Ref("s", ("j1",)), mul(Ref("r", ("i1",)), a("i1", "j1"))),
                        _acc(Ref("q", ("i1",)), mul(a("i1", "j1"), Ref("p", ("j1",)))),
                    ],
                ),
            ],
        ),
    ]
    return KernelSpec(
        name="bicg",
        arrays=[
            ArraySpec("A", (n, n), "in"),
            ArraySpec("r", (n,), "in"),
            ArraySpec("p", (n,), "in"),
            ArraySpec("s", (n,), "out"),
            ArraySpec("q", (n,), "out"),
        ],
        body=body,
        description="BiCG sub-kernel of BiCGStab linear solver",
    )


def gemm(n: int = DEFAULT_SIZE) -> KernelSpec:
    """``C = alpha * A * B + beta * C``."""
    c = lambda: Ref("C", ("i0", "j0"))
    body = [
        Loop(
            "i0",
            n,
            [
                Loop(
                    "j0",
                    n,
                    [
                        Assign(c(), mul(c(), Const(BETA))),
                        Loop(
                            "k0",
                            n,
                            [
                                _acc(
                                    c(),
                                    mul(
                                        mul(Const(ALPHA), Ref("A", ("i0", "k0"))),
                                        Ref("B", ("k0", "j0")),
                                    ),
                                )
                            ],
                        ),
                    ],
                )
            ],
        )
    ]
    return KernelSpec(
        name="gemm",
        arrays=[
            ArraySpec("A", (n, n), "in"),
            ArraySpec("B", (n, n), "in"),
            ArraySpec("C", (n, n), "inout"),
        ],
        body=body,
        description="general matrix-matrix multiplication",
    )


def gesummv(n: int = DEFAULT_SIZE) -> KernelSpec:
    """``y = alpha * A * x + beta * B * x``."""
    body = [
        Loop(
            "i0",
            n,
            [
                Assign(Ref("tmp", ("i0",)), Const(0.0)),
                Assign(Ref("y", ("i0",)), Const(0.0)),
                Loop(
                    "j0",
                    n,
                    [
                        _acc(
                            Ref("tmp", ("i0",)),
                            mul(Ref("A", ("i0", "j0")), Ref("x", ("j0",))),
                        ),
                        _acc(
                            Ref("y", ("i0",)),
                            mul(Ref("B", ("i0", "j0")), Ref("x", ("j0",))),
                        ),
                    ],
                ),
                Assign(
                    Ref("y", ("i0",)),
                    add(
                        mul(Const(ALPHA), Ref("tmp", ("i0",))),
                        mul(Const(BETA), Ref("y", ("i0",))),
                    ),
                ),
            ],
        )
    ]
    return KernelSpec(
        name="gesummv",
        arrays=[
            ArraySpec("A", (n, n), "in"),
            ArraySpec("B", (n, n), "in"),
            ArraySpec("x", (n,), "in"),
            ArraySpec("y", (n,), "out"),
            ArraySpec("tmp", (n,), "inout"),
        ],
        body=body,
        description="scalar, vector and matrix multiplication",
    )


def two_mm(n: int = DEFAULT_SIZE) -> KernelSpec:
    """``D = alpha * A * B * C + beta * D`` via ``tmp = alpha * A * B``."""
    body = [
        Loop(
            "i0",
            n,
            [
                Loop(
                    "j0",
                    n,
                    [
                        Assign(Ref("tmp", ("i0", "j0")), Const(0.0)),
                        Loop(
                            "k0",
                            n,
                            [
                                _acc(
                                    Ref("tmp", ("i0", "j0")),
                                    mul(
                                        mul(Const(ALPHA), Ref("A", ("i0", "k0"))),
                                        Ref("B", ("k0", "j0")),
                                    ),
                                )
                            ],
                        ),
                    ],
                )
            ],
        ),
        Loop(
            "i1",
            n,
            [
                Loop(
                    "j1",
                    n,
                    [
                        Assign(
                            Ref("D", ("i1", "j1")),
                            mul(Ref("D", ("i1", "j1")), Const(BETA)),
                        ),
                        Loop(
                            "k1",
                            n,
                            [
                                _acc(
                                    Ref("D", ("i1", "j1")),
                                    mul(Ref("tmp", ("i1", "k1")), Ref("C", ("k1", "j1"))),
                                )
                            ],
                        ),
                    ],
                )
            ],
        ),
    ]
    return KernelSpec(
        name="2mm",
        arrays=[
            ArraySpec("A", (n, n), "in"),
            ArraySpec("B", (n, n), "in"),
            ArraySpec("C", (n, n), "in"),
            ArraySpec("D", (n, n), "inout"),
            ArraySpec("tmp", (n, n), "inout"),
        ],
        body=body,
        description="two chained matrix multiplications",
    )


def three_mm(n: int = DEFAULT_SIZE) -> KernelSpec:
    """``G = (A * B) * (C * D)`` via temporaries ``E`` and ``F``."""

    def matmul_nest(dst: str, lhs: str, rhs: str, suffix: str) -> Loop:
        i, j, k = f"i{suffix}", f"j{suffix}", f"k{suffix}"
        return Loop(
            i,
            n,
            [
                Loop(
                    j,
                    n,
                    [
                        Assign(Ref(dst, (i, j)), Const(0.0)),
                        Loop(
                            k,
                            n,
                            [_acc(Ref(dst, (i, j)), mul(Ref(lhs, (i, k)), Ref(rhs, (k, j))))],
                        ),
                    ],
                )
            ],
        )

    body = [
        matmul_nest("E", "A", "B", "0"),
        matmul_nest("F", "C", "D", "1"),
        matmul_nest("G", "E", "F", "2"),
    ]
    return KernelSpec(
        name="3mm",
        arrays=[
            ArraySpec("A", (n, n), "in"),
            ArraySpec("B", (n, n), "in"),
            ArraySpec("C", (n, n), "in"),
            ArraySpec("D", (n, n), "in"),
            ArraySpec("E", (n, n), "inout"),
            ArraySpec("F", (n, n), "inout"),
            ArraySpec("G", (n, n), "out"),
        ],
        body=body,
        description="three chained matrix multiplications",
    )


def mvt(n: int = DEFAULT_SIZE) -> KernelSpec:
    """``x1 += A y1`` and ``x2 += A^T y2``."""
    body = [
        Loop(
            "i0",
            n,
            [
                Loop(
                    "j0",
                    n,
                    [
                        _acc(
                            Ref("x1", ("i0",)),
                            mul(Ref("A", ("i0", "j0")), Ref("y1", ("j0",))),
                        )
                    ],
                )
            ],
        ),
        Loop(
            "i1",
            n,
            [
                Loop(
                    "j1",
                    n,
                    [
                        _acc(
                            Ref("x2", ("i1",)),
                            mul(Ref("A", ("j1", "i1")), Ref("y2", ("j1",))),
                        )
                    ],
                )
            ],
        ),
    ]
    return KernelSpec(
        name="mvt",
        arrays=[
            ArraySpec("A", (n, n), "in"),
            ArraySpec("x1", (n,), "inout"),
            ArraySpec("x2", (n,), "inout"),
            ArraySpec("y1", (n,), "in"),
            ArraySpec("y2", (n,), "in"),
        ],
        body=body,
        description="matrix-vector product and transpose product",
    )


def syrk(n: int = DEFAULT_SIZE) -> KernelSpec:
    """Symmetric rank-k update ``C = alpha * A * A^T + beta * C``."""
    body = [
        Loop(
            "i0",
            n,
            [
                Loop(
                    "j0",
                    n,
                    [
                        Assign(
                            Ref("C", ("i0", "j0")),
                            mul(Ref("C", ("i0", "j0")), Const(BETA)),
                        ),
                        Loop(
                            "k0",
                            n,
                            [
                                _acc(
                                    Ref("C", ("i0", "j0")),
                                    mul(
                                        mul(Const(ALPHA), Ref("A", ("i0", "k0"))),
                                        Ref("A", ("j0", "k0")),
                                    ),
                                )
                            ],
                        ),
                    ],
                )
            ],
        )
    ]
    return KernelSpec(
        name="syrk",
        arrays=[ArraySpec("A", (n, n), "in"), ArraySpec("C", (n, n), "inout")],
        body=body,
        description="symmetric rank-k matrix update",
    )


def syr2k(n: int = DEFAULT_SIZE) -> KernelSpec:
    """Symmetric rank-2k update ``C = alpha*A*B^T + alpha*B*A^T + beta*C``."""
    body = [
        Loop(
            "i0",
            n,
            [
                Loop(
                    "j0",
                    n,
                    [
                        Assign(
                            Ref("C", ("i0", "j0")),
                            mul(Ref("C", ("i0", "j0")), Const(BETA)),
                        ),
                        Loop(
                            "k0",
                            n,
                            [
                                Assign(
                                    Ref("C", ("i0", "j0")),
                                    add(
                                        Ref("C", ("i0", "j0")),
                                        add(
                                            mul(
                                                mul(Const(ALPHA), Ref("A", ("i0", "k0"))),
                                                Ref("B", ("j0", "k0")),
                                            ),
                                            mul(
                                                mul(Const(ALPHA), Ref("B", ("i0", "k0"))),
                                                Ref("A", ("j0", "k0")),
                                            ),
                                        ),
                                    ),
                                )
                            ],
                        ),
                    ],
                )
            ],
        )
    ]
    return KernelSpec(
        name="syr2k",
        arrays=[
            ArraySpec("A", (n, n), "in"),
            ArraySpec("B", (n, n), "in"),
            ArraySpec("C", (n, n), "inout"),
        ],
        body=body,
        description="symmetric rank-2k matrix update",
    )


POLYBENCH_KERNELS: dict[str, Callable[[int], KernelSpec]] = {
    "atax": atax,
    "bicg": bicg,
    "gemm": gemm,
    "gesummv": gesummv,
    "2mm": two_mm,
    "3mm": three_mm,
    "mvt": mvt,
    "syrk": syrk,
    "syr2k": syr2k,
}


def polybench_names() -> list[str]:
    """Names of the nine evaluated PolyBench kernels, in the paper's order."""
    return ["atax", "bicg", "gemm", "gesummv", "2mm", "3mm", "mvt", "syrk", "syr2k"]


def polybench_kernel(name: str, size: int = DEFAULT_SIZE) -> KernelSpec:
    """Build the PolyBench kernel ``name`` with problem size ``size``."""
    if name not in POLYBENCH_KERNELS:
        raise KeyError(
            f"unknown PolyBench kernel {name!r}; available: {sorted(POLYBENCH_KERNELS)}"
        )
    kernel = POLYBENCH_KERNELS[name](size)
    kernel.validate()
    return kernel
