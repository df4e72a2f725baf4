"""Optimizers with checkpointable state."""

import numpy as np


class Optimizer:
    """Base class: `kind` names the optimizer in a checkpoint, and `slots`
    names its per-parameter state arrays, one list per slot aligned with
    `params`.  Together with the step count `t` and `lr` they are all of its
    checkpointable state."""

    kind = None
    slots = ()

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        for slot in self.slots:
            setattr(self, slot, [np.zeros_like(p.data) for p in self.params])

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def state_dict(self):
        state = {"kind": self.kind, "t": self.t, "lr": self.lr}
        for slot in self.slots:
            state[slot] = [a.copy() for a in getattr(self, slot)]
        return state

    def load_state_dict(self, state):
        if state["kind"] != self.kind:
            raise ValueError(f"optimizer kind mismatch: {state['kind']}")
        slots = {s: [np.asarray(a, dtype=np.float64).copy() for a in state[s]] for s in self.slots}
        shapes = [p.data.shape for p in self.params]
        for slot, arrays in slots.items():
            if [a.shape for a in arrays] != shapes:
                raise ValueError(f"optimizer state {slot!r} does not match the parameter shapes")
        self.t = int(state["t"])
        self.lr = float(state["lr"])
        for slot, arrays in slots.items():
            setattr(self, slot, arrays)


class Adam(Optimizer):
    kind = "adam"
    slots = ("m", "v")

    def __init__(self, params, lr, betas=(0.5, 0.999), eps=1e-8):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            mhat = self.m[i] / b1c
            vhat = self.v[i] / b2c
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)


class SGD(Optimizer):
    kind = "sgd"
    slots = ("buf",)

    def __init__(self, params, lr, momentum=0.9, weight_decay=1e-4):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self.buf[i] = self.momentum * self.buf[i] + g
            p.data = p.data - self.lr * self.buf[i]


class PlateauDecay:
    """Linear learning-rate decay to zero over the remaining epochs, armed
    once the monitored epoch-mean loss fails to improve for `patience`
    consecutive epochs.  Before the trigger the rate stays at lr0."""

    def __init__(self, lr0, patience, max_epochs):
        self.lr0 = lr0
        self.patience = patience
        self.max_epochs = max_epochs
        self.best = float("inf")
        self.bad_epochs = 0
        self.trigger_epoch = -1  # epochs completed when decay began

    def lr_for_epoch(self, epoch):
        if self.trigger_epoch < 0 or epoch < self.trigger_epoch:
            return self.lr0
        span = max(1, self.max_epochs - self.trigger_epoch)
        return self.lr0 * max(0.0, 1.0 - (epoch - self.trigger_epoch) / span)

    def observe(self, epoch_mean, epochs_done):
        if epoch_mean < self.best:
            self.best = epoch_mean
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
        if self.trigger_epoch < 0 and self.bad_epochs >= self.patience:
            self.trigger_epoch = epochs_done

    def state(self):
        return {
            "best": self.best,
            "bad_epochs": self.bad_epochs,
            "trigger_epoch": self.trigger_epoch,
        }

    def load(self, state):
        self.best = float(state["best"])
        self.bad_epochs = int(state["bad_epochs"])
        self.trigger_epoch = int(state["trigger_epoch"])
