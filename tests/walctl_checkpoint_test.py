#!/usr/bin/env python3
"""walctl accepts the checkpoints the engine writes.

Runs test_persist's hidden fixture writer into a fresh directory (ten
epochs at a checkpoint cadence of four: two checkpoints plus a WAL
tail), then asserts that `walctl list` reports no CORRUPT file and
`walctl verify` exits 0.

Usage: walctl_checkpoint_test.py <test_persist binary> <tools/walctl.py>
"""

import os
import subprocess
import sys
import tempfile


def main():
    test_persist, walctl = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory(prefix="dynsld-walctl-") as data:
        env = dict(os.environ, DYNSLD_WALCTL_DIR=data)
        subprocess.run([test_persist,
                        "--gtest_filter=Walctl.DISABLED_WriteFixtureDirectory",
                        "--gtest_also_run_disabled_tests"],
                       check=True, env=env, stdout=subprocess.DEVNULL)
        ckpts = [f for f in os.listdir(data) if f.startswith("ckpt-")]
        if not ckpts:
            sys.exit(f"no checkpoint written under {data}")

        listing = subprocess.run([sys.executable, walctl, "list", data],
                                 capture_output=True, text=True)
        print(listing.stdout, end="")
        if listing.returncode != 0 or "CORRUPT" in listing.stdout:
            sys.exit(f"walctl list flagged a file (rc={listing.returncode})")

        verify = subprocess.run([sys.executable, walctl, "verify", data])
        if verify.returncode != 0:
            sys.exit(f"walctl verify exited {verify.returncode}")
    print(f"ok: {len(ckpts)} checkpoint(s) verified")


if __name__ == "__main__":
    main()
