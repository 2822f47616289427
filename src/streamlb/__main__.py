"""``python -m streamlb {run,send,recv,sim} ARGS...``: the four CLIs without installed scripts."""

import sys

from . import cli

COMMANDS = {"run": cli.main_run, "send": cli.main_send, "recv": cli.main_recv, "sim": cli.main_sim}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in COMMANDS:
        print(f"usage: python -m streamlb {{{','.join(COMMANDS)}}} [ARGS...]", file=sys.stderr)
        return 2
    return COMMANDS[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
