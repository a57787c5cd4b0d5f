"""The built-in families as one-argument builders, ``ae1(m, p=...)``."""

import functools

from strcat import build_family

ae1, ae2, ae3 = (functools.partial(build_family, name) for name in ("ae1", "ae2", "ae3"))
