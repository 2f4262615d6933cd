"""INI-style run configuration, cast where the run reads it.

load_config parses a file into raw strings and refuses only what no run
could read: an unparsable file and keys under [DEFAULT].  A value is cast
when the CLI reads it, by RunConfig.get with the cast the reader names,
so a bad value is refused by a message naming its key and section.  The
one fail-closed rule is unread: every section and key in the file must be
asked for by the run, misspellings and case variants included.
"""

import configparser
import hashlib
import io
import math
import os


class ConfigError(Exception):
    """Invalid or incomplete run configuration (exit code 2)."""


def _float(text):
    val = float(text)
    if not math.isfinite(val):
        raise ValueError("must be a finite number")
    return val


def _int_from(low):
    def cast(text):
        val = int(text)
        if val < low:
            raise ValueError("must be an integer >= %d" % low)
        return val
    return cast


def _float_list(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_float(p) for p in parts)


def _choice(*options):
    def cast(text):
        if text not in options:
            raise ValueError("must be one of %s" % (", ".join(options),))
        return text
    return cast


_REQUIRED = object()


class RunConfig:
    """A parsed configuration: its raw values, its path and the SHA-256 of
    the bytes parsed.

    It remembers which keys get has asked for, so the CLI can refuse what
    a run would silently ignore (see unread).
    """

    def __init__(self, values, path, sha256):
        self.values = values
        self.path = path
        self.sha256 = sha256
        self._asked = set()

    def get(self, section, key, cast, default=_REQUIRED):
        """cast(value) of key in [section]; default when the file does not
        set it.  A ConfigError when cast refuses the value, or when there
        is no default: that one also names what the file sets that no get
        has asked for yet."""
        self._asked.add((section, key))
        raw = self.values.get(section, {}).get(key)
        if raw is None:
            if default is not _REQUIRED:
                return default
            # a misspelling of the key is among those not read yet
            unread = self.unread()
            raise ConfigError("missing required key '%s' in section [%s]%s" % (
                key, section, "; not read before it: " + ", ".join(unread) if unread else ""))
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError("invalid value for key '%s' in section [%s]: %s"
                              % (key, section, exc)) from exc

    def unread(self):
        """What the file sets that get never asked for: "key 'k' in section
        [s]" for each key, "section [s]" for an empty section."""
        asked_sections = {section for section, _ in self._asked}
        found = []
        for section, keys in self.values.items():
            if not keys and section not in asked_sections:
                found.append("section [%s]" % section)
            found.extend("key '%s' in section [%s]" % (key, section)
                         for key in keys if (section, key) not in self._asked)
        return found


def load_config(path):
    if not os.path.isfile(path):
        raise ConfigError("config file not found: %s" % path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep case so misspelled keys stay visible
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        # decoded as open(path) in text mode decodes it
        parser.read_file(io.TextIOWrapper(io.BytesIO(data)), source=str(path))
    except (configparser.Error, OSError) as exc:
        raise ConfigError("cannot parse %s: %s" % (path, exc))
    if parser.defaults():
        bad = ", ".join(sorted(parser.defaults()))
        raise ConfigError("unknown key(s) in [DEFAULT]: %s" % bad)
    values = {section: dict(parser.items(section)) for section in parser.sections()}
    return RunConfig(values, os.path.abspath(path), hashlib.sha256(data).hexdigest())
