let total = Inner.inside + 1
