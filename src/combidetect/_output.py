"""The one envelope of every document the package writes: a schema name, the
package version and a config around a body, with floats in CSV carrying 17
significant digits (an exact round trip for IEEE doubles) and LF line ends.
"""

from __future__ import annotations

import json

from ._version import __version__


def fmt17(x: float) -> str:
    """17 significant digits: exact round trip for IEEE doubles."""
    return format(float(x), ".17g")


def _cell(v) -> str:
    return fmt17(v) if isinstance(v, float) else str(v)


def _flatten(body: dict, prefix: str = "") -> list[tuple[str, object]]:
    # top-level keys keep the caller's order; nested keys are sorted
    rows = []
    for k, v in body.items():
        if isinstance(v, dict):
            rows += _flatten(dict(sorted(v.items())), f"{prefix}{k}.")
        else:
            rows.append((f"{prefix}{k}", v))
    return rows


def render(fmt, schema, config, body, *, table=None, footer=None, config_key="config") -> str:
    """The document as ``fmt`` (``"csv"`` or ``"json"``) text.

    JSON is ``body`` with ``schema``, ``version`` and ``config_key: config``
    merged in, dumped with sorted keys and an indent of 2.  CSV is
    ``#schema=``, ``#version=`` and ``#config=`` lines (compact JSON, sorted
    keys), then ``body`` flattened to ``key,value`` rows with dotted keys, or
    the ``(header, rows)`` of ``table`` in its place, then ``#key=value``
    lines for ``footer``.
    """
    if fmt == "json":
        doc = {"schema": schema, "version": __version__, config_key: config} | body
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    header, rows = table if table is not None else (("key", "value"), _flatten(body))
    lines = [
        f"#schema={schema}",
        f"#version={__version__}",
        "#config=" + json.dumps(config, sort_keys=True, separators=(",", ":")),
        ",".join(header),
    ]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    lines += [f"#{k}={_cell(v)}" for k, v in (footer or {}).items()]
    return "\n".join(lines) + "\n"
