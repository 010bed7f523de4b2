"""Signed graph diffusion networks: training and link sign prediction.

Submodules:
    graph       signed digraph construction and normalized adjacency operators
    features    randomized-SVD initial node features
    diffusion   signed random-walk diffusion, exact solver, adjoint
    model       diffusion layers, forward pass, edge scoring, loss
    training    reverse-mode gradients, Adam, epoch loop
    evaluation  edge splits, AUC, F1-macro, multi-seed experiments
    seeding     derived seed sub-streams of one run seed
    cli         command-line entry points
    atomic      all-or-nothing writes of saved artifacts
"""

__version__ = "0.1.0"
