"""Time one fresh-process set-up and print it in seconds.

Set-up is what a user pays before the first clip: importing the package,
building the kernel bank, and the workload's warm-up call that fills lazy
per-bank state. Usage: python3 perfbench/setup_probe.py <workload>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import program  # noqa: E402


def main():
    program.pin_blas_threads()
    program.load()
    import workloads
    from spiketrum import kernel_bank

    wl = workloads.build(sys.argv[1])
    wl.warm_up(kernel_bank.build_bank())
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
