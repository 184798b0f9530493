"""Uniformly sampled time-series container with CSV/JSON serialisation.

A Trace holds one or more equally long sample arrays on the grid
t0 + k*dt plus free-form metadata (model id, parameters, seed).  Writing is
bit-reproducible: floats are serialised with shortest round-trip repr and
JSON keys are sorted.  Both writers stream the samples in blocks of
``_BLOCK_ROWS`` rows, so a long trace never sits in memory as one string.
"""

import json
from dataclasses import dataclass, field

import numpy as np

_BLOCK_ROWS = 8192  # rows formatted per write; bounds the strings held at once


@dataclass
class Trace:
    t0: float
    dt: float
    data: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("sample spacing must be positive")
        if not self.data:
            raise ValueError("trace needs at least one channel")
        lengths = {name: len(arr) for name, arr in self.data.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"channel lengths differ: {lengths}")
        self.data = {name: np.asarray(arr, dtype=float) for name, arr in self.data.items()}

    def __len__(self):
        return len(next(iter(self.data.values())))

    @property
    def t(self):
        return self.t0 + self.dt * np.arange(len(self))

    @property
    def duration(self):
        return self.dt * (len(self) - 1)

    def channel(self, name):
        return self.data[name]

    def tail(self, fraction):
        """Samples after discarding the leading ``fraction`` as transient."""
        k0 = int(len(self) * fraction)
        return {name: arr[k0:] for name, arr in self.data.items()}

    def write_csv(self, path):
        names = sorted(self.data)
        # t as floats even for integer t0 and dt, so every cell is a float repr
        cols = [np.asarray(self.t, dtype=float)] + [self.data[n] for n in names]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["t"] + names) + "\n")
            for lo in range(0, len(self), _BLOCK_ROWS):
                cells = [map(repr, c[lo:lo + _BLOCK_ROWS].tolist()) for c in cols]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")

    def write_json(self, path):
        # json.dump(..., sort_keys=True, indent=1) of {"data", "dt", "meta",
        # "t0"}, written with "data" first (it sorts first) and each channel
        # streamed block by block; json's own encoder writes everything else
        rest = json.dumps({"dt": self.dt, "meta": self.meta, "t0": self.t0},
                          sort_keys=True, indent=1)
        with open(path, "w") as fh:
            fh.write('{\n "data": {')
            for i, name in enumerate(sorted(self.data)):
                fh.write(("," if i else "") + "\n  " + json.dumps(name) + ": ")
                arr = self.data[name]
                if not len(arr):
                    fh.write("[]")
                    continue
                for lo in range(0, len(arr), _BLOCK_ROWS):
                    block = arr[lo:lo + _BLOCK_ROWS]
                    # json.dumps spells non-finite samples NaN, Infinity, -Infinity
                    spell = repr if np.isfinite(block).all() else json.dumps
                    fh.write(("[" if lo == 0 else ",") + "\n   "
                             + ",\n   ".join(map(spell, block.tolist())))
                fh.write("\n  ]")
            # rest is "{\n <sorted items at indent 1>\n}"; keep all but "{\n"
            fh.write("\n },\n" + rest[2:] + "\n")

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            obj = json.load(fh)
        return cls(t0=obj["t0"], dt=obj["dt"], data=obj["data"], meta=obj.get("meta", {}))
