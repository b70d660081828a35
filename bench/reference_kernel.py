"""A fixed computation that the benchmark times next to every unit.

The host's speed drifts by up to 1.7x over minutes (see README, "Noise"),
so a raw wall time from one run says as much about the neighbours as about
the program. This kernel does the same kind of work as a workload (guided
DDIM on the workload's own Gaussian mixture, written directly in numpy and
never importing ctrlz), so it largely slows down and speeds up with the
host as the workload does, while no change to the package can move it. The
benchmark scales unit times by the kernel's nominal time over its mean time
in the same run.
"""

from __future__ import annotations

import math

import numpy as np


def _epsilon(x, ab, means, scales2, log_w, dim):
    """Noise prediction of the noised mixture, in log space as the package does it."""
    diff = math.sqrt(ab) * means - x
    var = ab * scales2 + (1.0 - ab)
    sq = np.einsum("kd,kd->k", diff, diff)
    logits = log_w - 0.5 * (dim * np.log(2.0 * math.pi * var) + sq / var)
    logits -= logits.max()
    resp = np.exp(logits)
    resp /= resp.sum()
    return -math.sqrt(1.0 - ab) * ((resp / var) @ diff)


class ReferenceKernel:
    """Guided DDIM over ``runs`` runs on the mixture of a workload's config document."""

    def __init__(self, doc: dict, runs: int) -> None:
        sched, mix = doc["schedule"], doc["mixture"]
        betas = np.linspace(sched["beta_start"], sched["beta_end"], sched["train_steps"])
        alpha_bars = np.concatenate(([1.0], np.cumprod(1.0 - betas)))
        levels = np.linspace(0, sched["train_steps"], sched["infer_steps"] + 1).round().astype(int)
        self.steps = [(float(alpha_bars[t]), float(alpha_bars[s])) for s, t in zip(levels[:-1], levels[1:])][::-1]
        self.means = np.asarray(mix["means"], dtype=np.float64)
        self.scales2 = np.asarray(mix["scales"], dtype=np.float64) ** 2
        self.log_w = np.log(np.asarray(mix["weights"], dtype=np.float64))
        self.log_w_cond = np.log(np.asarray(doc["condition"]["weights"], dtype=np.float64))
        self.omega = float(doc["guidance"]["omega"])
        self.seed = int(doc["seeds"]["master_seed"])
        self.runs = runs

    def __call__(self) -> float:
        """Run the kernel once; return a checksum so the work cannot be skipped."""
        dim = self.means.shape[1]
        total = 0.0
        for run in range(self.runs):
            x = np.random.default_rng([self.seed, run]).standard_normal(dim)
            for ab, ab_prev in self.steps:
                eps_u = _epsilon(x, ab, self.means, self.scales2, self.log_w, dim)
                eps_c = _epsilon(x, ab, self.means, self.scales2, self.log_w_cond, dim)
                eps = eps_u + self.omega * (eps_c - eps_u)
                x0 = (x - math.sqrt(1.0 - ab) * eps) / math.sqrt(ab)
                x = math.sqrt(ab_prev) * x0 + math.sqrt(1.0 - ab_prev) * eps
            total += float(x.sum())
        return total
