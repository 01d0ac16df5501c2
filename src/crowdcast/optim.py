"""Adam with bias correction over a flat name -> Tensor parameter dict."""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


class Adam:
    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def step(self):
        """One update of every parameter that has a grad, in place.

        The bias corrections are folded into the step size and epsilon
        (Kingma & Ba, section 2): lr * m_hat / (sqrt(v_hat) + eps) equals
        lr_t * m / (sqrt(v) + eps_t).
        """
        self.t += 1
        b1, b2 = BETA1, BETA2
        root = (1 - b2**self.t) ** 0.5  # a Python float keeps f32 moments in f32
        lr_t = self.lr * root / (1 - b1**self.t)
        eps_t = EPS * root
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            step = np.multiply(g, 1 - b1)  # the one scratch array of this update
            m *= b1
            m += step
            np.multiply(g, 1 - b2, out=step)
            step *= g
            v *= b2
            v += step
            np.sqrt(v, out=step)
            step += eps_t
            np.divide(m, step, out=step)
            step *= lr_t
            p.data -= step


def decayed_lr(base_lr, epoch, factor, every):
    """Step schedule: the rate multiplies by ``factor`` every ``every`` epochs."""
    return base_lr * factor ** (epoch // every)
