"""Sender child process: `rgbz-send`, optionally with spans around its calls.

    python3 streambench/sender_child.py PARENT_PID [--spans-out PATH] -- <rgbz-send args>

With --spans-out the public calls the sender makes are wrapped (container
read, signaling and attach, suppression, packing, encoding, send_stream and
the attached socket's sendall) and the spans are written to PATH when
rgbz-send returns. Without it rgbz-send runs untouched. The exit code is
rgbz-send's.
"""

import sys

import child


def main(argv: list[str]) -> int:
    child.start(int(argv[0]))
    argv = argv[1:]
    spans_out = None
    if argv[:1] == ["--spans-out"]:
        spans_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from threecpt import cli

    if spans_out is None:
        return cli.send_main(argv)

    from threecpt import codec, container, relay, transport

    from spans import Patches, Recorder, TracedSocket

    rec = Recorder()
    patches = Patches()
    patches.wrap(rec, container, "read_container", "container.read")
    patches.wrap(rec, relay, "register_channel", "relay.register")
    patches.wrap(rec, cli, "suppress_background", "frames.suppress")
    patches.wrap(rec, cli, "pack_superframe", "superframe.pack")
    patches.wrap(
        rec, codec, "ref_encode", "codec.encode",
        count_of=lambda args, au: None if au is None else len(au.payload),
    )
    patches.wrap(rec, transport, "send_stream", "transport.send_stream")
    attach = rec.wrap("relay.attach", relay.attach)

    def unit_seq(args):
        # frame seq of an ACCESS_UNIT packet, -1 for header and end-of-stream
        fields = transport.HEADER.unpack_from(args[0])
        return fields[5] if fields[2] == transport.PTYPE_ACCESS_UNIT else -1

    patches.set(
        relay,
        "attach",
        lambda *a, **kw: TracedSocket(attach(*a, **kw), rec, "transport.sendall", unit_seq),
    )
    try:
        return cli.send_main(argv)
    finally:
        patches.restore()
        rec.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
