"""Weakly-supervised video collision-detection toolkit.

Adapter/detector heads over frozen video-language embeddings, trained with a
multiple-instance log-sum-exp pooling objective, plus the surrounding
dataset, streaming-inference, scoring, and significance-testing machinery.
The package root exports nothing: the contract is the ``vlaad`` command
line and the file formats in README.md.
"""
