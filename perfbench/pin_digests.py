"""Pin the pool of generated systems the workloads draw from.

Usage, from the root of the repository:

    PYTHONPATH=src python3 perfbench/pin_digests.py

For every structure, every m in workloads.SIZES (n = m // 2) and generator
seeds 0..GENERATOR_POOL-1, writes the SHA-256 and the size of the config
that ``invman generate`` writes to ``generate_digests.json``.  The digests
are the byte-identical ``generate`` contract, checked by screen_roundtrip;
the sizes rank the pool for workloads.pool_seeds.  Rerun this only when
that contract is deliberately changed.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from invman import cli
from workloads import DIGESTS, GENERATOR_POOL, SIZES, STRUCTURES, n_for


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        out = str(Path(tmp) / "config.json")
        for kind in STRUCTURES:
            for m in SIZES:
                for seed in range(GENERATOR_POOL):
                    argv = ["generate", "--kind", kind, "--seed", str(seed),
                            "--m", str(m), "--n", str(n_for(m)), "--out", out]
                    if cli.main(argv) != 0:
                        return 1
                    data = Path(out).read_bytes()
                    digests[f"{kind}/{m}/{seed}"] = {
                        "sha256": hashlib.sha256(data).hexdigest(),
                        "bytes": len(data),
                    }
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
