"""Which library attributes each traced caller looks up, and their span names.

Kept free of imports so the traced CLI child can read it before it imports
mmdvar (whose import it times).  Span names are ``<layer>.<function>``.
"""

#: Helpers ``kernels.build_gram_pack`` looks up in its own module.  Private
#: names may disappear in a refactor; their spans then report zero calls.
KERNEL_INTERNALS = [
    ("mmdvar.kernels", "cdist", "kernels.cdist"),
    ("mmdvar.kernels", "pdist", "kernels.pdist"),
    ("mmdvar.kernels", "_median_distance_from_sq", "kernels.median_select"),
    ("mmdvar.kernels", "squareform", "kernels.squareform"),
    ("mmdvar.kernels", "kernel_matrix", "kernels.kernel_matrix"),
    ("mmdvar.kernels", "_zero_diag_sym", "kernels.zero_diag_sym"),
    ("mmdvar.kernels", "_stats", "kernels.stats"),
]

#: What the Monte Carlo harness looks up per replicate.  Kernel internals
#: are left out here: m = 8 builds would drown in wrapper overhead.
MONTECARLO = [
    ("mmdvar.montecarlo", "replicate_rng", "montecarlo.replicate_rng"),
    ("mmdvar.montecarlo", "draw_replicate", "montecarlo.draw_replicate"),
    ("mmdvar.montecarlo", "gaussian_draw", "oracle.gaussian_draw"),
    ("mmdvar.montecarlo", "build_gram_pack", "kernels.build_gram_pack"),
]

#: What ``cli.cmd_mmd`` looks up in the CLI module.
CLI = [
    ("mmdvar.cli", "load_csv", "cli.load_csv"),
    ("mmdvar.cli", "build_gram_pack", "kernels.build_gram_pack"),
    ("mmdvar.cli", "full_report", "estimators.full_report"),
] + KERNEL_INTERNALS
