"""Relay child process: `rgbz-relay` on ephemeral loopback ports.

    python3 -u streambench/relay_child.py PARENT_PID

Prints rgbz-relay's "signaling on HOST:PORT, relay on HOST:PORT" line and
serves until SIGINT, then stops the relay and exits 0.
"""

import signal
import sys

import child

if __name__ == "__main__":
    child.start(int(sys.argv[1]))
    # a parent started in the background may pass SIGINT on as ignored
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from threecpt import cli

    sys.exit(cli.relay_main(["--host", "127.0.0.1", "--signal-port", "0", "--relay-port", "0"]))
