import gc
import sys

# Safe because the process (``python -m cstarlab`` or the ``cstarlab`` script)
# runs one command and exits: what the paused import made is frozen, so no
# collection walks it, at exit neither.  Cost: 346 cyclic garbage objects stay.
paused = gc.isenabled()
gc.disable()
try:
    from .cli import main
finally:
    if paused:
        gc.enable()
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
