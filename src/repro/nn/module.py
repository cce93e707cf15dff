"""Parameter and Module base classes for the numpy neural-network library.

There is no autograd tape: each layer implements ``forward`` (caching what it
needs) and ``backward`` (consuming the cached values and accumulating
gradients into its parameters).  This keeps the library small, explicit, and
easy to verify with finite-difference tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

#: Floating dtypes the library allocates parameters, gradients, and
#: activations in.  Everything else (integer labels, token indices, boolean
#: masks) keeps its natural dtype.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: Default parameter/activation dtype when none is requested.
DEFAULT_DTYPE = np.dtype(np.float64)


def check_dtype(dtype) -> np.dtype:
    """Validate and normalize a requested floating dtype."""
    dtype = np.dtype(dtype)
    if dtype not in SUPPORTED_DTYPES:
        raise ValueError(f"dtype must be float32 or float64, got {dtype}")
    return dtype


class Parameter:
    """A trainable tensor with an accumulated gradient.

    Args:
        data: initial values; cast to ``dtype``.
        name: human-readable identifier used in state dicts.
        dtype: floating dtype of the value and gradient buffers
            (``float64`` by default; ``float32`` halves the memory traffic
            of every gradient computed against this parameter).
    """

    def __init__(self, data: np.ndarray, name: str = "param", *, dtype=None):
        dtype = DEFAULT_DTYPE if dtype is None else check_dtype(dtype)
        self.data = np.asarray(data, dtype=dtype)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def astype(self, dtype) -> "Parameter":
        """Cast the value and gradient buffers to ``dtype`` (in place)."""
        dtype = check_dtype(dtype)
        self.data = self.data.astype(dtype, copy=False)
        self.grad = self.grad.astype(dtype, copy=False)
        return self

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for layers and models.

    Subclasses register parameters as attributes of type :class:`Parameter`
    and sub-modules as attributes of type :class:`Module`; both are then
    discovered automatically by :meth:`parameters` and :meth:`modules`.
    """

    def __init__(self):
        self.training = True

    # -- construction helpers -------------------------------------------------
    def _children(self) -> Iterator[Tuple[str, "Module"]]:
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{index}", item

    def _own_parameters(self) -> Iterator[Tuple[str, Parameter]]:
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                yield name, value

    def _own_buffers(self) -> Iterator[Tuple[str, np.ndarray]]:
        """(name, array) pairs of non-parameter state updated during forward.

        Layers with such state (BatchNorm running statistics) override this;
        the arrays yielded must be the module's *live* buffers so that
        :meth:`load_state_dict` can write into them in place.
        """
        return iter(())

    # -- public API ------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """All trainable parameters of this module and its sub-modules."""
        params: List[Parameter] = [p for _, p in self._own_parameters()]
        for _, child in self._children():
            params.extend(child.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> List[Tuple[str, Parameter]]:
        """(name, parameter) pairs with dotted module paths."""
        named: List[Tuple[str, Parameter]] = []
        for name, param in self._own_parameters():
            named.append((f"{prefix}{name}", param))
        for child_name, child in self._children():
            named.extend(child.named_parameters(prefix=f"{prefix}{child_name}."))
        return named

    def named_buffers(self, prefix: str = "") -> List[Tuple[str, np.ndarray]]:
        """(name, array) pairs of non-parameter buffers with dotted paths.

        Buffers are state the forward pass updates outside of gradient
        descent — BatchNorm running statistics are the one built-in example.
        Modules without such state contribute nothing.
        """
        named: List[Tuple[str, np.ndarray]] = []
        for name, buffer in self._own_buffers():
            named.append((f"{prefix}{name}", buffer))
        for child_name, child in self._children():
            named.extend(child.named_buffers(prefix=f"{prefix}{child_name}."))
        return named

    def modules(self) -> List["Module"]:
        """This module and all nested sub-modules (depth-first)."""
        found: List[Module] = [self]
        for _, child in self._children():
            found.extend(child.modules())
        return found

    def zero_grad(self) -> None:
        """Zero every parameter gradient in the module tree."""
        for param in self.parameters():
            param.zero_grad()

    @property
    def dtype(self) -> np.dtype:
        """Floating dtype of the module's parameters (``float64`` if none)."""
        for param in self.parameters():
            return param.dtype
        return DEFAULT_DTYPE

    def astype(self, dtype) -> "Module":
        """Cast every parameter (and extra state) in the tree to ``dtype``.

        This is the conversion entry point used by
        :func:`repro.fl.experiment.run_experiment` when
        ``TrainingConfig(dtype="float32")`` is requested: casting the model
        makes the clients *compute* reduced-precision gradients instead of
        converting float64 results after the fact.
        """
        dtype = check_dtype(dtype)
        for module in self.modules():
            for _, param in module._own_parameters():
                param.astype(dtype)
            module._cast_extra_state(dtype)
        return self

    def _cast_extra_state(self, dtype: np.dtype) -> None:
        """Cast non-parameter floating buffers (overridden by e.g. BatchNorm)."""

    def train(self) -> "Module":
        """Switch the module tree into training mode."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Switch the module tree into evaluation mode."""
        for module in self.modules():
            module.training = False
        return self

    def state_dict(self, *, include_buffers: bool = True) -> Dict[str, np.ndarray]:
        """Copy of every named parameter's data (and, by default, buffers).

        The result is a plain ``{name: ndarray}`` mapping; the fleet
        collect path encodes it (pickle-free) as the per-round broadcast
        that ships parameter updates to its worker replicas.
        """
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        if include_buffers:
            for name, buffer in self.named_buffers():
                state[name] = buffer.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load values previously produced by :meth:`state_dict`.

        Every parameter must be present; buffer entries are optional (a
        parameters-only dict from ``state_dict(include_buffers=False)`` loads
        cleanly), but unknown keys are rejected.  Values are written in place,
        so dtypes follow the destination arrays.
        """
        own = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own) - set(buffers)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, values in state.items():
            target = own[name].data if name in own else buffers[name]
            if target.shape != values.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {target.shape} vs {values.shape}"
                )
            target[...] = values

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(param.size for param in self.parameters())

    # -- computation -----------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output for input ``x``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and return the input gradient."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(params={self.num_parameters()})"
