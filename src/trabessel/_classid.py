"""The solution-class identifiers, in a module of their own: the CLI offers
them as `--class` choices before it loads the solver."""
import enum


class ClassId(enum.Enum):
    K0 = "K0"
    K1 = "K1"
    C8B = "C8B"
    L39A = "L39A"
    L39B = "L39B"
    L39C = "L39C"
    K2_REDIRECT = "K2_REDIRECT"
    K3_REDIRECT = "K3_REDIRECT"
    C8C_REDIRECT = "C8C_REDIRECT"

    @property
    def is_redirect(self):
        return self.name.endswith("_REDIRECT")
