"""The per-step model scan, kept as the reference for the swap epoch.

Before link-model swaps were announced through
:func:`repro.netsim.links.replace_models`, a
:class:`~repro.traffic.vector.FluidRows` step re-checked every row's
``link.delay`` and ``link.loss`` by identity, whether or not anything
had been swapped, and derived ``base delay + service`` and ``1.0 - base
loss`` afresh.  :class:`ScanningRows` is that step's base-model half,
verbatim apart from returning the two derived vectors: it ignores the
swap epoch, so a product run and a run on these rows agree only if the
epoch makes the product see every swap at the step it lands, and if a
rescan nothing asked for changes nothing.  ``tests/traffic/
test_swap_epoch.py`` holds the two in lockstep.
"""

import math

import numpy as np

from repro.netsim.delaymodels import (
    ConstantDelay,
    GaussianJitterRows,
    plain_gaussian_jitter,
)
from repro.traffic.vector import FluidRows, VectorFluidEngine


class ScanningRows(FluidRows):
    """Fluid rows whose step scans every row's link models."""

    def _base_models(self, now: float) -> tuple[np.ndarray, np.ndarray]:
        delay_vals, loss_vals = self._delay_vals, self._loss_vals
        delay_models, loss_models = self._delay_models, self._loss_models
        for i, link in enumerate(self._links):
            dm = link.delay
            if dm is not delay_models[i]:
                delay_models[i] = dm
                self._delay_plan = None
                if type(dm) is ConstantDelay:
                    delay_vals[i] = dm.delay_at(now)
            lm = link.loss
            if lm is not loss_models[i]:
                loss_models[i] = lm
                self._loss_until[i] = self._next_loss_change = -math.inf

        if self._delay_plan is None:
            scalar_rows, jitter_rows, jitter_models = [], [], []
            for i, dm in enumerate(delay_models):
                if type(dm) is ConstantDelay:
                    continue
                plain = plain_gaussian_jitter(dm)
                if plain is None:
                    scalar_rows.append(i)
                else:
                    jitter_rows.append(i)
                    jitter_models.append(plain)
            self._delay_plan = (
                scalar_rows,
                np.array(jitter_rows, dtype=np.intp),
                GaussianJitterRows(jitter_models, self.step_s),
            )

        scalar_rows, jitter_rows, jitter = self._delay_plan
        for i in scalar_rows:
            delay_vals[i] = delay_models[i].delay_at(now)
        if len(jitter_rows):
            delay_vals[jitter_rows] = jitter.delays_at(now)
        if now >= self._next_loss_change:
            until = self._loss_until
            for i in np.flatnonzero(until <= now).tolist():
                lm = loss_models[i]
                loss_vals[i] = lm.loss_probability(now)
                until[i] = lm.constant_until(now)
            self._next_loss_change = float(until.min())
        return delay_vals + self._service_vec, 1.0 - loss_vals


def scanning_engine(deployment, src, demand, **kwargs) -> VectorFluidEngine:
    """A product engine for ``src`` whose rows are :class:`ScanningRows`
    of its own (``deployment.fluid_rows`` is set to them)."""
    deployment.fluid_rows = ScanningRows(deployment.sim, kwargs.get("step_s", 0.1))
    return VectorFluidEngine(deployment, src, demand, **kwargs)
