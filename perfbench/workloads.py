"""The benchmark's workloads: one generated experiment config each.

A workload is a config template whose only free value is the seed.  The
benchmark fills the seed in and hands the config text to a fresh
interpreter, which runs it through ``parafield.experiments``.  Every
time step is given explicitly (``dt``), so the number of exponential
integrator steps is a function of the config and, for the Picard
reference of ``particle_singular``, of the iteration count alone.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grid_n: int
    config: str  # config text; "{seed}" is replaced by the workload seed
    steps: int  # time steps of one field path (t / dt)
    paths: int  # field paths stepped once
    picard_paths: int = 0  # field paths stepped again on every Picard iteration

    def config_text(self, seed: int) -> str:
        return self.config.format(seed=seed)

    def field_steps(self, picard_iterations: int = 0) -> int:
        """Exponential-integrator steps of one N x N field in one run."""
        return self.steps * (self.paths + self.picard_paths * picard_iterations)


WORKLOADS = {w.name: w for w in [
    Workload(
        name="direct_n256",
        why="renormalized direct solve at N=256: FFT-bound, block arrays "
            "larger than L2, eager xi2 built but never read",
        grid_n=256,
        config="""[experiment]
name = solve
seed = {seed}

[grid]
n = 256
t = 0.0625
dt = 0.00390625

[noise]
eps = 0.1

[f]
name = tanh_bilinear
scale = 0.5

[params]
scheme = direct_renormalized
""",
        steps=16, paths=1),
    Workload(
        name="particle_additive",
        why="additive particle ensembles at N=32: per-call and per-Field "
            "overhead, interactions and exact W2; no enhancement or Bony",
        grid_n=32,
        config="""[experiment]
name = chaos_additive
seed = {seed}

[grid]
n = 32
t = 0.15
dt = 0.025

[ensemble]
k = 3
m_ref = 64
n_list = 4 16 64
""",
        # m_ref reference particles plus k runs at each n in n_list
        steps=6, paths=64 + 3 * (4 + 16 + 64)),
    Workload(
        name="paracontrolled_n64",
        why="paracontrolled solve at N=64: the only workload for Bony "
            "products, paracontrolled calculus and the slice shims; reads "
            "xi2 and X",
        grid_n=64,
        config="""[experiment]
name = solve
seed = {seed}

[grid]
n = 64
t = 0.375
dt = 0.015625

[noise]
eps = 0.1

[f]
name = tanh_bilinear
scale = 0.5

[params]
scheme = paracontrolled
""",
        steps=24, paths=1),
    Workload(
        name="particle_singular",
        why="singular particle systems at N=32: per-stream enhancement, "
            "renormalized particle stepping and Picard-on-law",
        grid_n=32,
        config="""[experiment]
name = chaos_singular
seed = {seed}

[grid]
n = 32
t = 0.2
dt = 0.0125

[noise]
eps = 0.05

[ensemble]
k = 3
m = 16
n_list = 2 16
""",
        # k runs at each n in n_list, then m Picard paths per iteration
        steps=16, paths=3 * (2 + 16), picard_paths=16),
]}
