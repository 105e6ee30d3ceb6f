"""Build hook for the optional compiled kernel.

The extension symbreak._kernels is one hand-written C file, the walk of
the two partition searches (see symbreak.kernels).  The package works
without it, on the pure-Python kernels in symbreak._kernels_py; building it
makes the searches behind D and the Phi/phi counts faster.  Any failure
here degrades to the pure kernels instead of failing the install.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Swallow compiler failures so the pure-Python install still succeeds."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any build failure is non-fatal
            print(f"warning: compiled kernel skipped ({exc})", file=sys.stderr)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            print(f"warning: building {ext.name} failed ({exc}); "
                  "falling back to the pure-Python kernels", file=sys.stderr)


setup(ext_modules=[Extension("symbreak._kernels", ["src/symbreak/_kernels.c"])],
      cmdclass={"build_ext": optional_build_ext})
