"""Build hook for the optional compiled kernel.

The package works without the extension (a pure-Python twin of every kernel
ships in symbreak._kernels_py); building it just makes the brute-force
search routines much faster.  Any failure here degrades to the fallback
instead of failing the install.
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


try:
    from Cython.Build import cythonize

    extensions = cythonize(
        [Extension("symbreak._kernels", ["src/symbreak/_kernels.pyx"])],
        language_level=3,
    )
except ImportError:
    # the generated C ships with the source, so no Cython is needed to build
    print("warning: Cython not available; compiling the shipped "
          "src/symbreak/_kernels.c", file=sys.stderr)
    extensions = [Extension("symbreak._kernels", ["src/symbreak/_kernels.c"])]

setup(ext_modules=extensions, cmdclass={"build_ext": optional_build_ext})
