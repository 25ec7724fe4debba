"""The command line's help text, written from its option table
(`cli.COMMANDS`); `cli_main` loads this module only for -h or --help."""

from __future__ import annotations

GRAMMAR = """\
An option may be cut to a prefix that no other option of its command
shares, and `--name=VALUE` is `--name VALUE`.  A repeated option keeps its
last value, but --secret and attack --attacker keep every one.  `--` ends
the options, and no command takes anything after them.  A usage error
exits 2."""


def _spelling(option) -> str:
    if option.kind == "flag":
        return option.name
    metavar = "{" + ",".join(option.choices) + "}" if option.choices else option.name[2:].upper()
    return f"{option.name} {option.metavar or metavar}"


def _usage(command: str, options) -> str:
    parts = [f"privtrace {command}"]
    for option in options:
        part = _spelling(option) if option.required else f"[{_spelling(option)}]"
        parts.append(part + "..." if option.kind == "repeat" else part)
    return " ".join(parts)


def help_text(commands: dict, help_option, command: str | None) -> str:
    """The help of `command`, or of every command when it is None."""
    if command is None:
        lines = ["usage: privtrace [-h] COMMAND [OPTION ...]", "",
                 "privacy analysis over anonymized tables and query traces", "",
                 f"commands (each takes -h, --help: {help_option.help}):"]
        lines += [f"  {_usage(name, options)}\n      {about}"
                  for name, (_, about, options) in commands.items()]
    else:
        _, about, options = commands[command]
        lines = [f"usage: {_usage(command, options)}", "", about, "", "options:",
                 f"  -h, --help\n      {help_option.help}"]
        lines += [f"  {_spelling(o)}\n      {o.help}" for o in options]
    return "\n".join([*lines, "", GRAMMAR, ""])
