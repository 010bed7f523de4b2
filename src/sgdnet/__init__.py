"""Signed graph diffusion networks: training and link sign prediction.

Submodules:
    graph       signed digraph construction and normalized adjacency operators
    features    randomized-SVD initial node features
    diffusion   signed random-walk diffusion, exact solver, adjoint
    model       diffusion layers, forward pass, edge scoring, loss
    training    reverse-mode gradients, Adam, epoch loop
    evaluation  edge splits, AUC, F1-macro, multi-seed experiments
    synthetic   random and planted signed graph generators
    cli         command-line entry points
    atomic      all-or-nothing writes of saved artifacts
"""

__version__ = "0.1.0"

_SUBMODULES = (
    "graph",
    "features",
    "diffusion",
    "model",
    "training",
    "evaluation",
    "synthetic",
    "seeding",
    "cli",
    "atomic",
)


def __getattr__(name):
    # Lazy submodule import keeps `import sgdnet` cheap and lets the CLI set
    # BLAS thread limits before numpy loads.
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
