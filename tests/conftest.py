"""One hypothesis profile for the whole suite: the same examples on every
run, and no example database.  Hypothesis also caches the constants it
reads from the source; that cache goes to a temporary directory removed at
exit, so a test run leaves no ``.hypothesis/`` behind."""

import atexit
import shutil
import tempfile

from hypothesis import configuration, settings

settings.register_profile("corkcalc", derandomize=True, database=None)
settings.load_profile("corkcalc")

_home = tempfile.mkdtemp(prefix="corkcalc-hypothesis-")
configuration.set_hypothesis_home_dir(_home)
atexit.register(shutil.rmtree, _home, ignore_errors=True)
