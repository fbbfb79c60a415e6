"""Finite-set colorings: built-in registry and external oracle protocol.

A coloring assigns every finite set a color index in {1..k}.  Built-ins
cover the deterministic test palettes plus a seeded pseudorandom family;
``external:<command>`` delegates to a subprocess speaking one set literal
per input line, one color index per output line.
"""

from __future__ import annotations

import hashlib
import shlex
import subprocess
from dataclasses import dataclass
from typing import Callable, Iterable

from .finsets import FinSet, as_finset, format_finset


class ColoringProtocolError(RuntimeError):
    """External coloring process broke the line protocol."""


@dataclass(frozen=True)
class Coloring:
    """Total map from finite sets to {1..colors}."""

    oracle: Callable[[FinSet], int]
    colors: int = 2
    name: str = "custom"

    def __post_init__(self):
        # bool is an int subclass, so test the exact type
        if type(self.colors) is not int or self.colors < 1:
            raise ValueError(
                f"colors must be an integer >= 1, got {self.colors!r}")

    def __call__(self, s: Iterable[int]) -> int:
        c = self.oracle(as_finset(s))
        if not 1 <= c <= self.colors:
            raise ColoringProtocolError(
                f"coloring {self.name!r} returned {c}, expected 1..{self.colors}"
            )
        return c


def _parity_sum(s: FinSet) -> int:
    return 1 if sum(s) % 2 == 0 else 2


def _span_threshold(s: FinSet) -> int:
    span = s[-1] - s[0] if len(s) > 1 else 0
    return 1 if span > 2 * len(s) else 2


def hash_coloring(seed: int, colors: int = 2) -> Coloring:
    """Seeded pseudorandom coloring, stable across runs and platforms."""

    def oracle(s: FinSet) -> int:
        payload = f"{seed}:{','.join(map(str, s))}".encode()
        digest = hashlib.sha256(payload).digest()
        return digest[0] % colors + 1

    return Coloring(oracle, colors=colors, name=f"hash[{seed}]")


class ExternalColoring:
    """Persistent subprocess answering color queries line by line.

    Each query writes one set literal (``{2,3,4}``) and expects one
    integer reply.  Any EOF or malformed reply aborts the run; a wedged
    oracle must not silently skew a search.
    """

    def __init__(self, command: str, colors: int = 2):
        self.command = command
        self.colors = colors
        self._proc = subprocess.Popen(
            shlex.split(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )

    def query(self, s: FinSet) -> int:
        proc = self._proc
        if proc.poll() is not None:
            raise ColoringProtocolError(
                f"coloring process exited with {proc.returncode}"
            )
        try:
            proc.stdin.write(format_finset(s) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
        except (BrokenPipeError, OSError) as e:
            raise ColoringProtocolError(f"coloring process pipe failed: {e}") from e
        if not line:
            raise ColoringProtocolError("coloring process closed its output")
        try:
            return int(line.strip())
        except ValueError:
            raise ColoringProtocolError(
                f"coloring process replied {line.strip()!r}, expected an integer"
            ) from None

    __call__ = query

    def close(self):
        """Send EOF, reap the child and close both pipes, alive or not."""
        proc = self._proc
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass  # flushing to a child that has exited
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


_BUILTINS = {
    "parity-sum": lambda seed: Coloring(_parity_sum, name="parity-sum"),
    "span-threshold": lambda seed: Coloring(_span_threshold, name="span-threshold"),
    "hash": lambda seed: hash_coloring(seed),
}


def get_coloring(name: str, seed: int = 0) -> Coloring:
    """Look up a registry coloring or spawn an ``external:<command>`` one."""
    if name in _BUILTINS:
        return _BUILTINS[name](seed)
    if name.startswith("external:"):
        command = name[len("external:"):]
        if not command:
            raise ValueError("external coloring needs a command after the colon")
        # the oracle is the process handle itself, so callers can close it
        ext = ExternalColoring(command)
        return Coloring(ext, colors=ext.colors, name=name)
    raise ValueError(
        f"unknown coloring {name!r}; built-ins: {', '.join(sorted(_BUILTINS))}"
    )


def registry_names():
    return tuple(sorted(_BUILTINS))
