# OpenBLAS reads its thread count once, when numpy loads, so dlesim's
# one-thread default (which gives way to a count the user set) only takes
# effect if dlesim is imported first: here, before any test module loads numpy.
import dlesim  # noqa: F401
