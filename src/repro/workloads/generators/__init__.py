"""Workload generator modules: one assembly builder per Table II row.

Only building a program needs them; the Table II metadata is a static
table in :mod:`repro.workloads.suite`, so reading results never imports
this package.
"""

from repro.workloads.generators import (
    basicmath,
    bitcount,
    dijkstra,
    fft,
    matmult,
    patricia,
    qsort,
    sha,
    stringsearch,
    tarfind,
)

#: workload name -> ``builder(scale, seed)`` returning assembly source
BUILDERS = {
    "basicmath": basicmath.build,
    "stringsearch": stringsearch.build,
    "fft": fft.build_fft,
    "ifft": fft.build_ifft,
    "bitcount": bitcount.build,
    "qsort": qsort.build,
    "dijkstra": dijkstra.build,
    "patricia": patricia.build,
    "matmult": matmult.build,
    "sha": sha.build,
    "tarfind": tarfind.build,
}
